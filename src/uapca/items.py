"""Distribution items: the scalar cells and the multivariate item classes.

Each item reduces to its first two moments, ``mean()`` and ``cov()``, and
draws samples with ``sample()``.  ``UncertainDataset`` (in ``model``) holds
their moments in columns and imports this module only when it is given
items or builds them, so a command that never makes an item never loads it.
The scalar cells' rules and moments are in ``model``, for the reader too.
"""

from __future__ import annotations

from dataclasses import astuple, dataclass
from numbers import Real

import numpy as np

from .model import (_cell_moments, _cell_rule_error, _frozen_vector, _population_moments,
                    _readonly, _real_array, _row_mean, cov_matrix)


# ---------------------------------------------------------------------------
# Scalar (1-d) building blocks for independent-marginal items.


class Scalar1D:
    """One-dimensional distribution summarized by mean and variance, checked and
    reduced to them on creation by ``model._cell_moments`` (kind ``_code``)."""

    _code: int

    def __post_init__(self):
        params = astuple(self)
        if not all(isinstance(v, Real) for v in params):
            raise TypeError(f"cell parameters must be real numbers, got {params}")
        mean, var, rules = _cell_moments(self._code, params)
        if error := _cell_rule_error(self._code, params, rules[:, 0]):
            raise ValueError(error)
        object.__setattr__(self, "_moments", (mean.item(), var.item()))

    def mean(self) -> float:
        return self._moments[0]

    def variance(self) -> float:
        return self._moments[1]

    def sample(self, n: int, rng: np.random.Generator) -> np.ndarray:
        raise NotImplementedError


@dataclass(frozen=True)
class Number(Scalar1D):
    """A known exact value."""

    value: float
    _code = 0

    def sample(self, n: int, rng: np.random.Generator) -> np.ndarray:
        return np.full(n, float(self.value))


@dataclass(frozen=True)
class Interval(Scalar1D):
    """Uniform distribution on [lo, hi]; lo == hi collapses to a point."""

    lo: float
    hi: float
    _code = 1

    def sample(self, n: int, rng: np.random.Generator) -> np.ndarray:
        if self.hi == self.lo:
            return np.full(n, self.lo)
        return rng.uniform(self.lo, self.hi, size=n)


@dataclass(frozen=True)
class Trapezoid(Scalar1D):
    """Trapezoidal distribution with support [a, d] and plateau [b, c].

    Density rises linearly on [a, b], is constant on [b, c], and falls linearly
    on [c, d].  Requires a <= b <= c <= d; a == d collapses to a point.
    """

    a: float
    b: float
    c: float
    d: float
    _code = 2

    def sample(self, n: int, rng: np.random.Generator) -> np.ndarray:
        a, b, c, d = self.a, self.b, self.c, self.d
        s = d + c - b - a
        if s == 0.0:
            return np.full(n, a)
        u = rng.uniform(0.0, 1.0, size=n)
        # Piecewise inverse CDF; the plateau branch is linear, the ramps are
        # square roots of the accumulated area.
        f_b = (b - a) / s
        f_c = f_b + 2.0 * (c - b) / s
        out = np.empty(n)
        rise = u < f_b
        flat = (~rise) & (u <= f_c)
        fall = ~(rise | flat)
        out[rise] = a + np.sqrt(u[rise] * s * (b - a))
        out[flat] = b + (u[flat] - f_b) * s / 2.0
        out[fall] = d - np.sqrt((1.0 - u[fall]) * s * (d - c))
        return out


@dataclass(frozen=True)
class Normal1D(Scalar1D):
    """Univariate normal with mean ``loc`` and standard deviation ``sd``."""

    loc: float
    sd: float
    _code = 3

    def sample(self, n: int, rng: np.random.Generator) -> np.ndarray:
        return rng.normal(self.loc, self.sd, size=n)


# ---------------------------------------------------------------------------
# Multivariate distributions.


class Distribution:
    """A distribution over R^D exposing first and second moments."""

    @property
    def dim(self) -> int:
        raise NotImplementedError

    def mean(self) -> np.ndarray:
        raise NotImplementedError

    def cov(self) -> np.ndarray:
        raise NotImplementedError

    def sample(self, n: int, rng: np.random.Generator) -> np.ndarray:
        """Draw n samples, returned as a new (n, D) array."""
        raise NotImplementedError


class Point(Distribution):
    """A point mass: zero covariance, exact location."""

    def __init__(self, x):
        self._x = _frozen_vector(x, "point")

    @property
    def dim(self) -> int:
        return self._x.size

    def mean(self) -> np.ndarray:
        return self._x

    def cov(self) -> np.ndarray:
        return np.zeros((self.dim, self.dim))

    def sample(self, n: int, rng: np.random.Generator) -> np.ndarray:
        return np.tile(self._x, (n, 1))

    def __repr__(self) -> str:
        return f"Point({self._x.tolist()})"


class Gaussian(Distribution):
    """Multivariate normal given by mean vector and covariance matrix."""

    def __init__(self, mean, cov):
        m = _frozen_vector(mean, "mean")
        k = cov_matrix(cov, "Gaussian covariance")
        if k.shape[0] != m.size:
            raise ValueError(
                f"covariance shape {k.shape} does not match mean length {m.size}"
            )
        self._mean = m
        self._cov = k
        self._factor: np.ndarray | None = None

    @property
    def dim(self) -> int:
        return self._mean.size

    def mean(self) -> np.ndarray:
        return self._mean

    def cov(self) -> np.ndarray:
        return self._cov

    def _sampling_factor(self) -> np.ndarray:
        """F with F F^T = cov, computed on first use and cached.

        The eigen factor handles rank-deficient covariances; tiny negative
        eigenvalues from round-off are clamped to zero.
        """
        if self._factor is None:
            evals, evecs = np.linalg.eigh(self._cov)
            self._factor = evecs * np.sqrt(np.clip(evals, 0.0, None))
        return self._factor

    def sample(self, n: int, rng: np.random.Generator) -> np.ndarray:
        z = rng.standard_normal((n, self.dim))
        return z @ self._sampling_factor().T + self._mean

    def __repr__(self) -> str:
        return f"Gaussian(mean={self._mean.tolist()}, dim={self.dim})"


class ProductOf1D(Distribution):
    """Independent per-axis marginals; covariance is diagonal."""

    def __init__(self, cells):
        cells = tuple(cells)
        if not cells:
            raise ValueError("product distribution needs at least one cell")
        for i, cell in enumerate(cells):
            if not isinstance(cell, Scalar1D):
                raise ValueError(f"cell {i} is not a scalar distribution: {cell!r}")
        self.cells = cells

    @property
    def dim(self) -> int:
        return len(self.cells)

    def mean(self) -> np.ndarray:
        return np.array([c.mean() for c in self.cells])

    def cov(self) -> np.ndarray:
        return np.diag([c.variance() for c in self.cells])

    def sample(self, n: int, rng: np.random.Generator) -> np.ndarray:
        out = np.empty((n, self.dim))
        for j, cell in enumerate(self.cells):
            out[:, j] = cell.sample(n, rng)
        return out

    def __repr__(self) -> str:
        return f"ProductOf1D({list(self.cells)!r})"


class EmpiricalCluster(Distribution):
    """A cluster of observed points treated as an empirical distribution.

    Moments are the sample mean and the population (1/n) covariance of the
    stored points; sampling resamples the points uniformly with replacement.
    """

    def __init__(self, points):
        p = _real_array(points, "points")
        if p.ndim != 2 or p.shape[0] == 0 or p.shape[1] == 0:
            raise ValueError(f"points must be a non-empty (n, D) array, got shape {p.shape}")
        if not np.all(np.isfinite(p)):
            raise ValueError("points contain non-finite entries")
        self.points = _readonly(p.copy())

    @property
    def dim(self) -> int:
        return self.points.shape[1]

    def mean(self) -> np.ndarray:
        return _row_mean(self.points)

    def cov(self) -> np.ndarray:
        return _population_moments(self.points)[1]

    def sample(self, n: int, rng: np.random.Generator) -> np.ndarray:
        return self.points[rng.integers(0, self.points.shape[0], size=n)]

    def __repr__(self) -> str:
        return f"EmpiricalCluster(n={self.points.shape[0]}, dim={self.dim})"
