"""Probability distributions with maximum-likelihood fitting.

Section II-B of the paper: *"we first estimate the parameters of the
fitting distributions through maximum likelihood estimation (MLE) and
then adopt Pearson's chi-squared test"*.  The candidate families the
paper names are uniform, exponential, Weibull, gamma and lognormal; all
five are implemented here with closed-form MLE where it exists and
Newton root-finding where it does not:

* Weibull shape — Newton on the profile score, guarded by a bisection
  bracket, with the powers ``x**k`` formed relative to the sample
  maximum so they never overflow.
* Gamma shape — Minka's closed-form start, then Newton.

Every distribution exposes ``pdf``, ``cdf``, ``ppf`` (inverse CDF, used
for equiprobable chi-squared binning), ``sample`` and a ``fit``
classmethod, plus ``n_params`` so goodness-of-fit tests can charge the
right degrees of freedom.  ``ppf`` returns a float for a scalar and an
array of the same shape for an array.  The two quantile functions with
no closed form are:

* normal (for the lognormal) — Wichura's AS241 rational approximation
  (PPND16, Applied Statistics 37, 1988), accurate to about 1e-16;
* gamma — Halley steps on the CDF from the initial guess of
  ``invgammp`` (Numerical Recipes, 3rd ed., §6.2.1), each kept inside a
  bracket set by the sign of the CDF error.

The sample sums are written as ``(a * b).sum()``, never as ``a @ b``,
``np.dot`` or ``einsum``: a BLAS call may run on OpenBLAS threads that
started before the process was pinned to one CPU, and then competes
with it (see "Statistics substrate" in DESIGN.md).
"""

from __future__ import annotations

import abc
import math
from typing import Dict, Sequence, Tuple

import numpy as np

from repro.stats.special import digamma, gammainc_lower, gammaln, normal_cdf


class FitError(ValueError):
    """Raised when MLE cannot be performed on the given sample."""


def _validate_positive_sample(data: np.ndarray, name: str) -> np.ndarray:
    data = np.asarray(data, dtype=float)
    if data.size < 2:
        raise FitError(f"{name} fit needs at least 2 observations")
    if np.any(~np.isfinite(data)):
        raise FitError(f"{name} fit requires finite observations")
    if np.any(data <= 0):
        raise FitError(f"{name} fit requires strictly positive observations")
    return data


class Distribution(abc.ABC):
    """Base class for the fitted distributions."""

    #: Number of free parameters estimated by ``fit`` — the chi-squared
    #: test subtracts this from the degrees of freedom.
    n_params: int = 0
    #: Family name used in reports and figure legends.
    name: str = "distribution"

    @abc.abstractmethod
    def pdf(self, x) -> np.ndarray:
        """Probability density at ``x``."""

    @abc.abstractmethod
    def cdf(self, x) -> np.ndarray:
        """Cumulative distribution function at ``x``."""

    @abc.abstractmethod
    def ppf(self, q) -> np.ndarray:
        """Inverse CDF (quantile function) at probability ``q``."""

    @abc.abstractmethod
    def sample(self, size: int, rng: np.random.Generator) -> np.ndarray:
        """Draw ``size`` i.i.d. samples."""

    @property
    @abc.abstractmethod
    def params(self) -> Dict[str, float]:
        """Fitted parameter values by name."""

    @property
    @abc.abstractmethod
    def mean(self) -> float:
        """Distribution mean."""

    @classmethod
    @abc.abstractmethod
    def fit(cls, data) -> "Distribution":
        """Maximum-likelihood fit to a 1-D sample."""

    def log_likelihood(self, data) -> float:
        """Total log-likelihood of a sample under this distribution."""
        dens = self.pdf(np.asarray(data, dtype=float))
        if np.any(dens <= 0):
            return float("-inf")
        return float(np.sum(np.log(dens)))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        args = ", ".join(f"{k}={v:.6g}" for k, v in self.params.items())
        return f"{type(self).__name__}({args})"


class Uniform(Distribution):
    """Continuous uniform distribution on ``[low, high]``."""

    name = "uniform"
    n_params = 2

    def __init__(self, low: float, high: float):
        if not high > low:
            raise ValueError(f"require high > low, got [{low}, {high}]")
        self.low = float(low)
        self.high = float(high)

    def pdf(self, x):
        x = np.asarray(x, dtype=float)
        inside = (x >= self.low) & (x <= self.high)
        return np.where(inside, 1.0 / (self.high - self.low), 0.0)

    def cdf(self, x):
        x = np.asarray(x, dtype=float)
        return np.clip((x - self.low) / (self.high - self.low), 0.0, 1.0)

    def ppf(self, q):
        q = np.asarray(q, dtype=float)
        return self.low + q * (self.high - self.low)

    def sample(self, size, rng):
        return rng.uniform(self.low, self.high, size)

    @property
    def params(self):
        return {"low": self.low, "high": self.high}

    @property
    def mean(self):
        return 0.5 * (self.low + self.high)

    @classmethod
    def fit(cls, data):
        data = np.asarray(data, dtype=float)
        if data.size < 2:
            raise FitError("uniform fit needs at least 2 observations")
        low, high = float(data.min()), float(data.max())
        if high == low:
            raise FitError("uniform fit requires non-degenerate sample")
        return cls(low, high)


class Exponential(Distribution):
    """Exponential distribution with rate ``lam`` (mean ``1/lam``)."""

    name = "exponential"
    n_params = 1

    def __init__(self, lam: float):
        if lam <= 0:
            raise ValueError(f"rate must be positive, got {lam}")
        self.lam = float(lam)

    def pdf(self, x):
        x = np.asarray(x, dtype=float)
        return np.where(x >= 0, self.lam * np.exp(-self.lam * x), 0.0)

    def cdf(self, x):
        x = np.asarray(x, dtype=float)
        return np.where(x >= 0, 1.0 - np.exp(-self.lam * x), 0.0)

    def ppf(self, q):
        q = np.asarray(q, dtype=float)
        return -np.log1p(-q) / self.lam

    def sample(self, size, rng):
        return rng.exponential(1.0 / self.lam, size)

    @property
    def params(self):
        return {"lam": self.lam}

    @property
    def mean(self):
        return 1.0 / self.lam

    @classmethod
    def fit(cls, data):
        data = _validate_positive_sample(data, "exponential")
        return cls(1.0 / float(data.mean()))


class Weibull(Distribution):
    """Weibull distribution with shape ``k`` and scale ``lam``."""

    name = "weibull"
    n_params = 2

    def __init__(self, shape: float, scale: float):
        if shape <= 0 or scale <= 0:
            raise ValueError(f"shape and scale must be positive: {shape}, {scale}")
        self.shape = float(shape)
        self.scale = float(scale)

    def pdf(self, x):
        x = np.asarray(x, dtype=float)
        k, lam = self.shape, self.scale
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            z = np.where(x > 0, x / lam, 0.0)
            dens = (k / lam) * z ** (k - 1.0) * np.exp(-(z**k))
        return np.where(x > 0, dens, 0.0)

    def cdf(self, x):
        x = np.asarray(x, dtype=float)
        z = np.where(x > 0, x / self.scale, 0.0)
        return np.where(x > 0, 1.0 - np.exp(-(z**self.shape)), 0.0)

    def ppf(self, q):
        q = np.asarray(q, dtype=float)
        return self.scale * (-np.log1p(-q)) ** (1.0 / self.shape)

    def sample(self, size, rng):
        return self.scale * rng.weibull(self.shape, size)

    @property
    def params(self):
        return {"shape": self.shape, "scale": self.scale}

    @property
    def mean(self):
        return self.scale * math.exp(float(gammaln(1.0 + 1.0 / self.shape)))

    @classmethod
    def fit(cls, data):
        data = _validate_positive_sample(data, "weibull")
        # Logs relative to the largest: x**k = exp(k * top) * exp(k * d)
        # with d <= 0, so the weights below lie in [0, 1] and the
        # common factor exp(k * top) cancels from every ratio.
        logs = np.log(data)
        top = float(logs.max())
        d = logs - top
        mean_d = float(d.mean())

        def score(k: float) -> Tuple[float, float, np.ndarray]:
            # The profile score g(k) — d/dk of the profile log-likelihood,
            # whose root is the MLE shape — and g'(k), the weighted
            # variance of ln x plus 1/k², which is always positive.
            w = np.exp(k * d)
            wd = w * d
            s0 = float(w.sum())
            m1 = float(wd.sum()) / s0
            m2 = float((wd * d).sum()) / s0
            return m1 - 1.0 / k - mean_d, m2 - m1 * m1 + 1.0 / (k * k), w

        # g is increasing in k: bracket the root, then Newton, bisecting
        # whenever a step leaves the bracket.
        lo, hi = 1e-3, 1.0
        for _ in range(200):
            g, dg, w = score(hi)
            if g > 0:
                break
            hi *= 2.0
        else:
            raise FitError("weibull shape bracket search failed")
        if score(lo)[0] > 0:
            raise FitError("weibull fit requires sample with spread")
        k = hi
        for _ in range(200):
            step = g / dg
            if abs(step) <= 1e-12 * k:
                break
            k = k - step
            if not lo < k < hi:
                k = 0.5 * (lo + hi)
            g, dg, w = score(k)
            if g > 0:
                hi = k
            else:
                lo = k
        scale = math.exp(top + math.log(float(w.mean())) / k)
        return cls(k, scale)


class Gamma(Distribution):
    """Gamma distribution with shape ``k`` and scale ``theta``."""

    name = "gamma"
    n_params = 2

    def __init__(self, shape: float, scale: float):
        if shape <= 0 or scale <= 0:
            raise ValueError(f"shape and scale must be positive: {shape}, {scale}")
        self.shape = float(shape)
        self.scale = float(scale)

    def pdf(self, x):
        x = np.asarray(x, dtype=float)
        k, theta = self.shape, self.scale
        with np.errstate(divide="ignore", invalid="ignore"):
            log_dens = (
                (k - 1.0) * np.log(np.where(x > 0, x, 1.0))
                - x / theta
                - k * np.log(theta)
                - gammaln(k)
            )
            dens = np.exp(log_dens)
        return np.where(x > 0, dens, 0.0)

    def cdf(self, x):
        x = np.asarray(x, dtype=float)
        positive = x > 0
        out = np.zeros_like(x, dtype=float)
        if positive.any():
            out[positive] = gammainc_lower(self.shape, x[positive] / self.scale)
        return out

    def ppf(self, q):
        # No closed form: Halley steps from the Numerical Recipes
        # ``invgammp`` guess (see _gamma_quantile); ``out[()]`` turns a
        # 0-d result back into a float.
        q = np.asarray(q, dtype=float)
        if np.any((q < 0) | (q >= 1)):
            raise ValueError("gamma ppf requires 0 <= q < 1")
        out = np.zeros_like(q)
        pos = q > 0.0
        if pos.any():
            out[pos] = self.scale * _gamma_quantile(self.shape, q[pos])
        return out[()]

    def sample(self, size, rng):
        return rng.gamma(self.shape, self.scale, size)

    @property
    def params(self):
        return {"shape": self.shape, "scale": self.scale}

    @property
    def mean(self):
        return self.shape * self.scale

    @classmethod
    def fit(cls, data):
        data = _validate_positive_sample(data, "gamma")
        mean = float(data.mean())
        s = math.log(mean) - float(np.log(data).mean())
        if s <= 1e-10:
            raise FitError("gamma fit requires sample with spread")
        # Minka's closed-form initialization, then Newton on
        # f(k) = ln k - psi(k) - s.
        k = (3.0 - s + math.sqrt((s - 3.0) ** 2 + 24.0 * s)) / (12.0 * s)
        for _ in range(100):
            fk = math.log(k) - float(digamma(k)) - s
            # f'(k) = 1/k - psi'(k); approximate psi' by finite difference
            # of our digamma (accurate enough for Newton convergence).
            h = max(1e-6 * k, 1e-10)
            fprime = (
                (math.log(k + h) - float(digamma(k + h)))
                - (math.log(k - h) - float(digamma(k - h)))
            ) / (2.0 * h)
            if fprime == 0:
                break
            step = fk / fprime
            new_k = k - step
            if new_k <= 0:
                new_k = k / 2.0
            if abs(new_k - k) < 1e-12 * k:
                k = new_k
                break
            k = new_k
        return cls(k, mean / k)


class LogNormal(Distribution):
    """Lognormal distribution: ``ln X ~ Normal(mu, sigma)``."""

    name = "lognormal"
    n_params = 2

    def __init__(self, mu: float, sigma: float):
        if sigma <= 0:
            raise ValueError(f"sigma must be positive, got {sigma}")
        self.mu = float(mu)
        self.sigma = float(sigma)

    def pdf(self, x):
        x = np.asarray(x, dtype=float)
        with np.errstate(divide="ignore", invalid="ignore"):
            logx = np.log(np.where(x > 0, x, 1.0))
            dens = np.exp(-((logx - self.mu) ** 2) / (2.0 * self.sigma**2)) / (
                np.where(x > 0, x, 1.0) * self.sigma * np.sqrt(2.0 * np.pi)
            )
        return np.where(x > 0, dens, 0.0)

    def cdf(self, x):
        x = np.asarray(x, dtype=float)
        out = np.zeros_like(x, dtype=float)
        positive = x > 0
        if positive.any():
            out[positive] = normal_cdf(np.log(x[positive]), self.mu, self.sigma)
        return out

    def ppf(self, q):
        q = np.asarray(q, dtype=float)
        if np.any((q < 0) | (q >= 1)):
            raise ValueError("lognormal ppf requires 0 <= q < 1")
        out = np.zeros_like(q)
        pos = q > 0.0
        if pos.any():
            out[pos] = np.exp(self.mu + self.sigma * _normal_quantile(q[pos]))
        return out[()]

    def sample(self, size, rng):
        return rng.lognormal(self.mu, self.sigma, size)

    @property
    def params(self):
        return {"mu": self.mu, "sigma": self.sigma}

    @property
    def mean(self):
        return math.exp(self.mu + 0.5 * self.sigma**2)

    @classmethod
    def fit(cls, data):
        data = _validate_positive_sample(data, "lognormal")
        logs = np.log(data)
        sigma = float(logs.std())
        if sigma <= 1e-12 * max(1.0, abs(float(logs.mean()))):
            raise FitError("lognormal fit requires sample with spread")
        return cls(float(logs.mean()), sigma)


# Wichura's AS241 (PPND16) coefficients, highest degree first: the
# numerator and denominator of the central (|q - 0.5| <= 0.425),
# intermediate (r <= 5) and tail rational approximations.
_AS241 = (
    (
        (2.5090809287301226727e3, 3.3430575583588128105e4,
         6.7265770927008700853e4, 4.5921953931549871457e4,
         1.3731693765509461125e4, 1.9715909503065514427e3,
         1.3314166789178437745e2, 3.3871328727963666080e0),
        (5.2264952788528545610e3, 2.8729085735721942674e4,
         3.9307895800092710610e4, 2.1213794301586595867e4,
         5.3941960214247511077e3, 6.8718700749205790830e2,
         4.2313330701600911252e1, 1.0),
    ),
    (
        (7.74545014278341407640e-4, 2.27238449892691845833e-2,
         2.41780725177450611770e-1, 1.27045825245236838258e0,
         3.64784832476320460504e0, 5.76949722146069140550e0,
         4.63033784615654529590e0, 1.42343711074968357734e0),
        (1.05075007164441684324e-9, 5.47593808499534494600e-4,
         1.51986665636164571966e-2, 1.48103976427480074590e-1,
         6.89767334985100004550e-1, 1.67638483018380384940e0,
         2.05319162663775882187e0, 1.0),
    ),
    (
        (2.01033439929228813265e-7, 2.71155556874348757815e-5,
         1.24266094738807843860e-3, 2.65321895265761230930e-2,
         2.96560571828504891230e-1, 1.78482653991729133580e0,
         5.46378491116411436990e0, 6.65790464350110377720e0),
        (2.04426310338993978564e-15, 1.42151175831644588870e-7,
         1.84631831751005468180e-5, 7.86869131145613259100e-4,
         1.48753612908506148525e-2, 1.36929880922735805310e-1,
         5.99832206555887937690e-1, 1.0),
    ),
)


def _rational(coeffs, x: np.ndarray) -> np.ndarray:
    num, den = coeffs
    return np.polyval(num, x) / np.polyval(den, x)


def _normal_quantile(q: np.ndarray) -> np.ndarray:
    """Standard normal quantiles for ``0 < q < 1`` by Wichura's AS241
    (PPND16), accurate to about 1e-16."""
    q = np.asarray(q, dtype=float)
    r = q - 0.5
    out = np.empty_like(q)
    central = np.abs(r) <= 0.425
    rc = r[central]
    out[central] = rc * _rational(_AS241[0], 0.180625 - rc * rc)
    tail = ~central
    if tail.any():
        qt = q[tail]
        # 1 - q is exact for q >= 0.5.
        s = np.sqrt(-np.log(np.minimum(qt, 1.0 - qt)))
        z = np.where(
            s <= 5.0,
            _rational(_AS241[1], s - 1.6),
            _rational(_AS241[2], s - 5.0),
        )
        out[tail] = np.where(qt < 0.5, -z, z)
    return out


def _gamma_quantile(a: float, q: np.ndarray) -> np.ndarray:
    """Quantiles of the unit-scale gamma with shape ``a`` for
    ``0 < q < 1``.

    Halley steps on ``P(a, x) - q`` with the density as derivative,
    started from the guess of ``invgammp`` (Numerical Recipes, 3rd ed.,
    §6.2.1); at most four CDF calls on every chi-squared grid for shapes
    0.05 to 400.  Each element keeps a bracket set by the sign of its CDF
    error, and a step that leaves it falls back to bisection (doubling
    while no upper bound is known).  An element is done once its step is
    below 1e-10 relative; an exact hit (zero error) makes a zero step.
    The step is tested before the bracket, so rounding at the root never
    triggers the fallback.
    """
    q = np.asarray(q, dtype=float)
    a1 = a - 1.0
    gln = float(gammaln(a))
    if a > 1.0:
        t = np.sqrt(-2.0 * np.log(np.minimum(q, 1.0 - q)))
        z = (2.30753 + t * 0.27061) / (1.0 + t * (0.99229 + t * 0.04481)) - t
        z = np.where(q < 0.5, -z, z)
        x = a * (1.0 - 1.0 / (9.0 * a) - z / (3.0 * math.sqrt(a))) ** 3
        x = np.maximum(1e-3, x)
    else:
        t = 1.0 - a * (0.253 + a * 0.12)
        x = np.where(
            q < t, (q / t) ** (1.0 / a), 1.0 - np.log1p(-(q - t) / (1.0 - t))
        )
    lo = np.zeros_like(x)
    hi = np.full_like(x, np.inf)
    todo = np.arange(x.size)
    for _ in range(100):
        xt, lt, ht = x[todo], lo[todo], hi[todo]
        err = gammainc_lower(a, xt) - q[todo]
        lt = np.where(err < 0, xt, lt)
        ht = np.where(err > 0, xt, ht)
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            u = err / np.exp(a1 * np.log(xt) - xt - gln)
            step = u / (1.0 - 0.5 * np.minimum(1.0, u * (a1 / xt - 1.0)))
        new = xt - step
        done = np.abs(step) <= 1e-10 * xt
        fallback = ~done & ~((lt < new) & (new < ht))
        bisect = np.where(np.isinf(ht), 2.0 * xt, 0.5 * (lt + ht))
        x[todo] = np.where(fallback, bisect, new)
        lo[todo], hi[todo] = lt, ht
        todo = todo[~done]
        if todo.size == 0:
            break
    return x


#: The families the paper tries to fit to TBF data (Section III-B).
TBF_FAMILIES: Tuple[type, ...] = (Exponential, Weibull, Gamma, LogNormal)


def fit_all(data, families: Sequence[type] = TBF_FAMILIES) -> Dict[str, Distribution]:
    """Fit every family that admits the sample; families whose MLE fails
    (e.g. a degenerate sample) are silently skipped.

    Returns a dict keyed by family name; may be empty.
    """
    fits: Dict[str, Distribution] = {}
    for family in families:
        try:
            fits[family.name] = family.fit(data)
        except FitError:
            continue
    return fits


__all__ = [
    "Distribution",
    "Uniform",
    "Exponential",
    "Weibull",
    "Gamma",
    "LogNormal",
    "FitError",
    "TBF_FAMILIES",
    "fit_all",
]
