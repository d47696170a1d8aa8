"""Distribution model for uncertainty-aware PCA.

Every input item is a probability distribution over R^D, reduced to its
first two moments: ``mean()`` returns E[x] and ``cov()`` the covariance
matrix Cov(x, x).  The second moment follows as E[x x^T] = mean mean^T + cov.
All covariance bookkeeping uses population (1/N) normalization.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

# Relative floor for eigenvalues of a valid covariance matrix.
PSD_RTOL = 1e-9
# Relative symmetry slack accepted before symmetrization.
SYM_RTOL = 1e-12


def _readonly(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


def _as_vector(x, name: str = "vector") -> np.ndarray:
    v = np.asarray(x, dtype=float)
    if v.ndim != 1 or v.size == 0:
        raise ValueError(f"{name} must be a non-empty 1-d array, got shape {v.shape}")
    if not np.all(np.isfinite(v)):
        raise ValueError(f"{name} contains non-finite entries")
    return v


def cov_matrix(entries, name: str = "covariance") -> np.ndarray:
    """Validate a covariance matrix and return its symmetrized copy.

    The input must be square, finite, symmetric within ``SYM_RTOL`` relative
    tolerance, and positive semi-definite up to numerical noise (eigenvalues
    no lower than ``-PSD_RTOL`` times the largest eigenvalue magnitude).
    The returned array is read-only.
    """
    k = np.asarray(entries, dtype=float)
    if k.ndim != 2 or k.shape[0] != k.shape[1] or k.shape[0] == 0:
        raise ValueError(f"{name} must be a square matrix, got shape {k.shape}")
    if not np.all(np.isfinite(k)):
        raise ValueError(f"{name} contains non-finite entries")
    scale = float(np.abs(k).max())
    if float(np.abs(k - k.T).max()) > SYM_RTOL * max(1.0, scale):
        raise ValueError(f"{name} is not symmetric")
    k = (k + k.T) / 2.0
    _require_psd(k, name)
    return _readonly(k)


def _require_psd(k: np.ndarray, name: str) -> None:
    """Raise unless each matrix of the symmetric (..., D, D) stack k has no
    eigenvalue below -PSD_RTOL times its largest magnitude (one eigvalsh)."""
    evals = np.linalg.eigvalsh(k).reshape(-1, k.shape[-1])
    lam_scale = np.abs(evals).max(axis=1)
    bad = np.flatnonzero(evals[:, 0] < -PSD_RTOL * lam_scale)
    if bad.size:
        i = int(bad[0])
        raise ValueError(
            f"{name}{f' {i}' if k.ndim > 2 else ''} is not positive semi-definite "
            f"(min eigenvalue {evals[i, 0]:.3e}, scale {lam_scale[i]:.3e})"
        )


def _population_moments(
    rows: np.ndarray, overwrite: bool = False
) -> tuple[np.ndarray, np.ndarray]:
    """Mean and symmetrized population (1/n) covariance of (n, D) rows; no validation.

    With ``overwrite`` the rows are centred in place instead of in a copy;
    the result is the same bits either way.
    """
    mean = rows.mean(axis=0)
    centered = np.subtract(rows, mean, out=rows if overwrite else None)
    k = centered.T @ centered / rows.shape[0]
    return mean, (k + k.T) / 2.0


def affine_mean(a: np.ndarray, b: np.ndarray, m: np.ndarray) -> np.ndarray:
    """Mean of A x + b for x with mean m: A m + b."""
    a = np.asarray(a, dtype=float)
    b = _as_vector(b, "offset")
    m = _as_vector(m, "mean")
    if a.ndim != 2 or a.shape != (b.size, m.size):
        raise ValueError(
            f"matrix shape {a.shape} incompatible with offset {b.size} and mean {m.size}"
        )
    return a @ m + b


def affine_cov(a: np.ndarray, k: np.ndarray) -> np.ndarray:
    """Covariance of A x + b for x with covariance K: A K A^T."""
    a = np.asarray(a, dtype=float)
    k = np.asarray(k, dtype=float)
    if a.ndim != 2 or k.ndim != 2 or a.shape[1] != k.shape[0] or k.shape[0] != k.shape[1]:
        raise ValueError(f"incompatible shapes {a.shape} and {k.shape}")
    out = a @ k @ a.T
    return (out + out.T) / 2.0


# ---------------------------------------------------------------------------
# Scalar (1-d) building blocks for independent-marginal items.


class Scalar1D:
    """One-dimensional distribution summarized by mean and variance."""

    def mean(self) -> float:
        raise NotImplementedError

    def variance(self) -> float:
        raise NotImplementedError

    def sample(self, n: int, rng: np.random.Generator) -> np.ndarray:
        raise NotImplementedError

    def rescale(self, scale: float, offset: float) -> "Scalar1D":
        """The distribution of scale * x + offset (scale > 0)."""
        raise NotImplementedError

    def to_json(self) -> dict:
        """The cell as a dataset-file value, e.g. {"interval": [lo, hi]}."""
        raise NotImplementedError


@dataclass(frozen=True)
class Number(Scalar1D):
    """A known exact value."""

    value: float

    def __post_init__(self):
        if not math.isfinite(self.value):
            raise ValueError("number value must be finite")

    def mean(self) -> float:
        return float(self.value)

    def variance(self) -> float:
        return 0.0

    def sample(self, n: int, rng: np.random.Generator) -> np.ndarray:
        return np.full(n, float(self.value))

    def rescale(self, scale: float, offset: float) -> "Number":
        return Number(scale * self.value + offset)

    def to_json(self) -> dict:
        return {"number": self.value}


@dataclass(frozen=True)
class Interval(Scalar1D):
    """Uniform distribution on [lo, hi]; lo == hi collapses to a point."""

    lo: float
    hi: float

    def __post_init__(self):
        if not (math.isfinite(self.lo) and math.isfinite(self.hi)):
            raise ValueError("interval bounds must be finite")
        if self.lo > self.hi:
            raise ValueError(f"interval bounds must satisfy lo <= hi, got [{self.lo}, {self.hi}]")

    def mean(self) -> float:
        return (self.lo + self.hi) / 2.0

    def variance(self) -> float:
        return (self.hi - self.lo) ** 2 / 12.0

    def sample(self, n: int, rng: np.random.Generator) -> np.ndarray:
        if self.hi == self.lo:
            return np.full(n, self.lo)
        return rng.uniform(self.lo, self.hi, size=n)

    def rescale(self, scale: float, offset: float) -> "Interval":
        return Interval(scale * self.lo + offset, scale * self.hi + offset)

    def to_json(self) -> dict:
        return {"interval": [self.lo, self.hi]}


@dataclass(frozen=True)
class Trapezoid(Scalar1D):
    """Trapezoidal distribution with support [a, d] and plateau [b, c].

    Density rises linearly on [a, b], is constant on [b, c], and falls
    linearly on [c, d].  Requires a <= b <= c <= d; a == d collapses to a
    point.  Moments come from piecewise polynomial integration on the
    support shifted so that a = 0 (b, c, d below are offsets from a), which
    keeps them free of cancellation however far the support sits from the
    origin:

        E[X] - a     = (d^2 + c d + c^2 - b^2) / (3 (d + c - b))
        E[(X - a)^2] = (d^3 + d^2 c + d c^2 + c^3 - b^3) / (6 (d + c - b))
    """

    a: float
    b: float
    c: float
    d: float

    def __post_init__(self):
        vals = (self.a, self.b, self.c, self.d)
        if not all(math.isfinite(v) for v in vals):
            raise ValueError("trapezoid parameters must be finite")
        if not (self.a <= self.b <= self.c <= self.d):
            raise ValueError(
                f"trapezoid parameters must satisfy a <= b <= c <= d, got {vals}"
            )

    def _span(self) -> float:
        return self.d + self.c - self.b - self.a

    def _moments_about_a(self) -> tuple[float, float]:
        """E[X - a] and E[(X - a)^2], integrated on the support shifted to a = 0."""
        s = self._span()
        if s == 0.0:
            return 0.0, 0.0
        b, c, d = self.b - self.a, self.c - self.a, self.d - self.a
        first = (d * d + c * d + c * c - b * b) / (3.0 * s)
        second = (d**3 + d**2 * c + d * c**2 + c**3 - b**3) / (6.0 * s)
        return first, second

    def mean(self) -> float:
        return self.a + self._moments_about_a()[0]

    def variance(self) -> float:
        first, second = self._moments_about_a()
        return max(second - first * first, 0.0)

    def sample(self, n: int, rng: np.random.Generator) -> np.ndarray:
        a, b, c, d = self.a, self.b, self.c, self.d
        s = self._span()
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

    def rescale(self, scale: float, offset: float) -> "Trapezoid":
        return Trapezoid(*(scale * v + offset for v in (self.a, self.b, self.c, self.d)))

    def to_json(self) -> dict:
        return {"trapezoid": [self.a, self.b, self.c, self.d]}


@dataclass(frozen=True)
class Normal1D(Scalar1D):
    """Univariate normal with mean ``loc`` and standard deviation ``sd``."""

    loc: float
    sd: float

    def __post_init__(self):
        if not (math.isfinite(self.loc) and math.isfinite(self.sd)):
            raise ValueError("normal parameters must be finite")
        if self.sd < 0.0:
            raise ValueError(f"normal sd must be non-negative, got {self.sd}")

    def mean(self) -> float:
        return float(self.loc)

    def variance(self) -> float:
        return float(self.sd) ** 2

    def sample(self, n: int, rng: np.random.Generator) -> np.ndarray:
        return rng.normal(self.loc, self.sd, size=n)

    def rescale(self, scale: float, offset: float) -> "Normal1D":
        return Normal1D(scale * self.loc + offset, scale * self.sd)

    def to_json(self) -> dict:
        return {"normal": {"mean": self.loc, "sd": self.sd}}


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

    def sample(
        self, n: int, rng: np.random.Generator, out: np.ndarray | None = None,
        draws: np.ndarray | None = None,
    ) -> np.ndarray:
        """Draw n samples as an (n, D) array, written into ``out`` when given.

        ``draws`` is an optional (n, D) buffer for intermediate standard
        normal draws (only Gaussian items use it), so a caller that samples
        repeatedly into its own buffers allocates nothing per call.  The
        generator is consumed the same way, and the samples are the same
        bits, whether or not the buffers are given.
        """
        raise NotImplementedError

    def rescale(self, scale: np.ndarray, offset: np.ndarray) -> "Distribution":
        """Apply the per-axis map x -> scale * x + offset (scale > 0)."""
        raise NotImplementedError


def _sample_buffer(buf: np.ndarray | None, n: int, dim: int) -> np.ndarray:
    """A fresh (n, dim) array, or buf after checking that it has that shape."""
    if buf is None:
        return np.empty((n, dim))
    if buf.shape != (n, dim):
        raise ValueError(f"sample buffer has shape {buf.shape}, expected {(n, dim)}")
    return buf


def _check_rescale_args(scale, offset, dim: int) -> tuple[np.ndarray, np.ndarray]:
    s = _as_vector(scale, "scale")
    o = _as_vector(offset, "offset")
    if s.size != dim or o.size != dim:
        raise ValueError(f"scale/offset length must be {dim}")
    if np.any(s <= 0.0):
        raise ValueError("scale entries must be positive")
    return s, o


class Point(Distribution):
    """A point mass: zero covariance, exact location."""

    def __init__(self, x):
        self._x = _readonly(_as_vector(x, "point"))

    @property
    def dim(self) -> int:
        return self._x.size

    def mean(self) -> np.ndarray:
        return self._x

    def cov(self) -> np.ndarray:
        return np.zeros((self.dim, self.dim))

    def sample(self, n: int, rng: np.random.Generator, out=None, draws=None) -> np.ndarray:
        out = _sample_buffer(out, n, self.dim)
        out[...] = self._x
        return out

    def rescale(self, scale, offset) -> "Point":
        s, o = _check_rescale_args(scale, offset, self.dim)
        return Point(s * self._x + o)

    def __repr__(self) -> str:
        return f"Point({self._x.tolist()})"


class Gaussian(Distribution):
    """Multivariate normal given by mean vector and covariance matrix."""

    def __init__(self, mean, cov):
        m = _as_vector(mean, "mean")
        k = cov_matrix(cov, "Gaussian covariance")
        if k.shape[0] != m.size:
            raise ValueError(
                f"covariance shape {k.shape} does not match mean length {m.size}"
            )
        self._mean = _readonly(m)
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
        eigenvalues from round-off are clamped to zero.  Call it once before
        sampling one item from several threads, so they only read it.
        """
        if self._factor is None:
            evals, evecs = np.linalg.eigh(self._cov)
            self._factor = evecs * np.sqrt(np.clip(evals, 0.0, None))
        return self._factor

    def sample(self, n: int, rng: np.random.Generator, out=None, draws=None) -> np.ndarray:
        z = rng.standard_normal(out=_sample_buffer(draws, n, self.dim))
        out = np.matmul(z, self._sampling_factor().T, out=_sample_buffer(out, n, self.dim))
        out += self._mean
        return out

    def rescale(self, scale, offset) -> "Gaussian":
        s, o = _check_rescale_args(scale, offset, self.dim)
        return Gaussian(s * self._mean + o, self._cov * np.outer(s, s))

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

    def sample(self, n: int, rng: np.random.Generator, out=None, draws=None) -> np.ndarray:
        out = _sample_buffer(out, n, self.dim)
        for j, cell in enumerate(self.cells):
            out[:, j] = cell.sample(n, rng)
        return out

    def rescale(self, scale, offset) -> "ProductOf1D":
        s, o = _check_rescale_args(scale, offset, self.dim)
        return ProductOf1D(cell.rescale(si, oi) for cell, si, oi in zip(self.cells, s, o))

    def __repr__(self) -> str:
        return f"ProductOf1D({list(self.cells)!r})"


class EmpiricalCluster(Distribution):
    """A cluster of observed points treated as an empirical distribution.

    Moments are the sample mean and the population (1/n) covariance of the
    stored points; sampling resamples the points uniformly with replacement.
    """

    def __init__(self, points):
        p = np.asarray(points, dtype=float)
        if p.ndim != 2 or p.shape[0] == 0 or p.shape[1] == 0:
            raise ValueError(f"points must be a non-empty (n, D) array, got shape {p.shape}")
        if not np.all(np.isfinite(p)):
            raise ValueError("points contain non-finite entries")
        self.points = _readonly(p.copy())

    @property
    def dim(self) -> int:
        return self.points.shape[1]

    def mean(self) -> np.ndarray:
        return self.points.mean(axis=0)

    def cov(self) -> np.ndarray:
        return _population_moments(self.points)[1]

    def sample(self, n: int, rng: np.random.Generator, out=None, draws=None) -> np.ndarray:
        idx = rng.integers(0, self.points.shape[0], size=n)
        # Indices are in range, so "clip" changes nothing; it spares the
        # temporary that take() makes for out= under the default "raise".
        out = _sample_buffer(out, n, self.dim)
        return np.take(self.points, idx, axis=0, out=out, mode="clip")

    def rescale(self, scale, offset) -> "EmpiricalCluster":
        s, o = _check_rescale_args(scale, offset, self.dim)
        return EmpiricalCluster(self.points * s + o)

    def __repr__(self) -> str:
        return f"EmpiricalCluster(n={self.points.shape[0]}, dim={self.dim})"


# ---------------------------------------------------------------------------
# Dataset container.


@dataclass(frozen=True)
class UncertainDataset:
    """An ordered collection of distribution items over a shared R^D.

    Weights are non-negative with a positive total and default to ones;
    they enter all dataset-level expectations after normalization.  Labels
    are optional display names carried through aggregation and rendering.
    """

    items: tuple[Distribution, ...]
    weights: np.ndarray = field(default=None)  # type: ignore[assignment]
    dim_names: tuple[str, ...] = field(default=None)  # type: ignore[assignment]
    labels: tuple[str, ...] | None = None

    def __post_init__(self):
        items = tuple(self.items)
        if not items:
            raise ValueError("empty dataset")
        d = items[0].dim
        for i, it in enumerate(items):
            if not isinstance(it, Distribution):
                raise ValueError(f"item {i} is not a Distribution: {it!r}")
            if it.dim != d:
                raise ValueError(f"item {i} has dimension {it.dim}, expected {d}")
        object.__setattr__(self, "items", items)

        w = self.weights
        w = np.ones(len(items)) if w is None else np.asarray(w, dtype=float)
        if w.shape != (len(items),):
            raise ValueError(f"weights must have shape ({len(items)},), got {w.shape}")
        if not np.all(np.isfinite(w)) or np.any(w < 0.0):
            raise ValueError("weights must be finite and non-negative")
        if w.sum() <= 0.0:
            raise ValueError("weights must have a positive total")
        object.__setattr__(self, "weights", _readonly(w))

        names = self.dim_names
        names = tuple(f"x{i + 1}" for i in range(d)) if names is None else tuple(names)
        if len(names) != d:
            raise ValueError(f"dim_names length {len(names)} does not match dimension {d}")
        object.__setattr__(self, "dim_names", names)

        if self.labels is not None:
            labels = tuple(str(x) for x in self.labels)
            if len(labels) != len(items):
                raise ValueError("labels length does not match item count")
            object.__setattr__(self, "labels", labels)

    @property
    def dim(self) -> int:
        return self.items[0].dim

    def __len__(self) -> int:
        return len(self.items)

    def means(self) -> np.ndarray:
        """Item means stacked into an (N, D) array."""
        return np.stack([it.mean() for it in self.items])

    def rescale(self, scale, offset) -> "UncertainDataset":
        return UncertainDataset(
            tuple(it.rescale(scale, offset) for it in self.items),
            weights=self.weights.copy(),
            dim_names=self.dim_names,
            labels=self.labels,
        )
