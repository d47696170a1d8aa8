"""Distribution model for uncertainty-aware PCA.

Every input item is a probability distribution over R^D, reduced to its
first two moments: ``mean()`` returns E[x] and ``cov()`` the covariance
matrix Cov(x, x).  The second moment follows as E[x x^T] = mean mean^T + cov.
All covariance bookkeeping uses population (1/N) normalization.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

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
    return _cov_stack(k[None], lambda i: name)[0]


def _symmetrized(k: np.ndarray, name) -> np.ndarray:
    """(k + k^T) / 2 for a (G, D, D) stack k, checked finite, then symmetric.

    Each rule is checked on the whole stack in turn, and its error names the
    first matrix that breaks it as ``name(index)``.  Runs under
    ``np.errstate``: an entry that overflows when symmetrized counts as
    non-finite.
    """
    n, d = len(k), k.shape[-1]
    flat, k_t = k.reshape(n, d * d), k.swapaxes(1, 2)
    # In place where it can be, so a large stack makes few temporaries.
    with np.errstate(over="ignore", invalid="ignore"):
        diff = k - k_t
        scale = np.maximum(np.maximum(flat.max(axis=1), -flat.min(axis=1)), 1.0)
        asym = np.abs(diff, out=diff).reshape(n, d * d).max(axis=1) > SYM_RTOL * scale
        del diff
        sym = k + k_t
        sym /= 2.0
    finite = np.isfinite(sym).reshape(n, d * d).all(axis=1)
    for bad, rule in ((~finite, "contains non-finite entries"), (asym, "is not symmetric")):
        if bad.any():
            raise ValueError(f"{name(int(np.argmax(bad)))} {rule}")
    return sym


def _cov_stack(k: np.ndarray, name) -> np.ndarray:
    """``cov_matrix`` on a (G, D, D) stack: ``_symmetrized``, then one
    ``eigvalsh`` for every PSD check; returns the stack read-only."""
    sym = _symmetrized(k, name)
    _require_psd(sym, name)
    return _readonly(sym)


def _require_psd(k: np.ndarray, name) -> None:
    """Raise unless each matrix of the symmetric (..., D, D) stack k has no
    eigenvalue below -PSD_RTOL times its largest magnitude (one eigvalsh).
    The error names the first bad matrix as ``name(flat index)``."""
    evals = np.linalg.eigvalsh(k).reshape(-1, k.shape[-1])
    lam_scale = np.abs(evals).max(axis=1)
    bad = np.flatnonzero(evals[:, 0] < -PSD_RTOL * lam_scale)
    if bad.size:
        i = int(bad[0])
        raise ValueError(
            f"{name(i)} is not positive semi-definite "
            f"(min eigenvalue {evals[i, 0]:.3e}, scale {lam_scale[i]:.3e})"
        )


def _population_moments(
    rows: np.ndarray, overwrite: bool = False
) -> tuple[np.ndarray, np.ndarray]:
    """Mean and symmetrized population (1/n) covariance of (n, D) rows; no validation.

    With ``overwrite`` the rows are centred in place instead of in a copy;
    the result is the same bits either way.  An overflow leaves non-finite
    entries, with no numpy warning, for the caller's checks to reject.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        mean = rows.mean(axis=0)
        centered = np.subtract(rows, mean, out=rows if overwrite else None)
        k = centered.T @ centered / rows.shape[0]
        return mean, (k + k.T) / 2.0


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


def _sample_buffer(buf: np.ndarray | None, n: int, dim: int) -> np.ndarray:
    """A fresh (n, dim) array, or buf after checking that it has that shape."""
    if buf is None:
        return np.empty((n, dim))
    if buf.shape != (n, dim):
        raise ValueError(f"sample buffer has shape {buf.shape}, expected {(n, dim)}")
    return buf


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
        with np.errstate(over="ignore"):  # a sum that overflows gives a non-finite mean
            return self.points.mean(axis=0)

    def cov(self) -> np.ndarray:
        return _population_moments(self.points)[1]

    def sample(self, n: int, rng: np.random.Generator, out=None, draws=None) -> np.ndarray:
        idx = rng.integers(0, self.points.shape[0], size=n)
        # Indices are in range, so "clip" changes nothing; it spares the
        # temporary that take() makes for out= under the default "raise".
        out = _sample_buffer(out, n, self.dim)
        return np.take(self.points, idx, axis=0, out=out, mode="clip")

    def __repr__(self) -> str:
        return f"EmpiricalCluster(n={self.points.shape[0]}, dim={self.dim})"


# ---------------------------------------------------------------------------
# Dataset container.


class UncertainDataset:
    """An ordered table of distribution items over a shared R^D.

    Each row is one item, reduced to its weight and first two moments, and
    the moments are stored in columns:

    - ``means()``: the (N, D) item means, built once;
    - ``weights``: non-negative with a positive total, ones by default;
      they enter all dataset-level expectations after normalization;
    - ``full_covs`` (G, D, D) with the item rows ``full_index``: the
      covariances of Gaussian, cluster and any other full-covariance items;
    - ``diag_vars`` (P, D) with the item rows ``diag_index``: the variances
      of ``ProductOf1D`` items, whose covariance is that diagonal;
    - nothing for points: a row in neither block has zero covariance.

    ``items`` gives the rows as Distribution objects: a dataset made from
    items keeps them, any other builds them from the table.  Labels are
    optional display names carried through aggregation and rendering.
    """

    def __init__(self, items, weights=None, dim_names=None, labels=None):
        items = tuple(items)
        for i, it in enumerate(items):
            if not isinstance(it, Distribution):
                raise ValueError(f"item {i} is not a Distribution: {it!r}")
            if it.dim != items[0].dim:
                raise ValueError(f"item {i} has dimension {it.dim}, expected {items[0].dim}")
        d = items[0].dim if items else 0
        full = [i for i, it in enumerate(items) if not isinstance(it, (Point, ProductOf1D))]
        diag = [i for i, it in enumerate(items) if isinstance(it, ProductOf1D)]
        self._fill(
            np.array([it.mean() for it in items]).reshape(len(items), d),
            full, np.array([items[i].cov() for i in full]).reshape(len(full), d, d),
            diag, np.array([[c.variance() for c in items[i].cells] for i in diag]).reshape(
                len(diag), d),
            weights, dim_names, labels, items=items,
        )

    @classmethod
    def _from_table(cls, means, full_index=(), full_covs=None, diag_index=(), diag_vars=None,
                    *, cells=None, weights=None, dim_names=None, labels=None) -> "UncertainDataset":
        """A dataset from its columns, with no covariance block where none is
        given; ``cells`` optionally holds each diagonal-block row's cells."""
        ds = cls.__new__(cls)
        ds._fill(means, full_index, full_covs, diag_index, diag_vars,
                 weights, dim_names, labels, cells=cells)
        return ds

    def _fill(self, means, full_index, full_covs, diag_index, diag_vars,
              weights, dim_names, labels, items=None, cells=None) -> None:
        n, d = means.shape
        full_covs = np.empty((0, d, d)) if full_covs is None else full_covs
        diag_vars = np.empty((0, d)) if diag_vars is None else diag_vars
        if not n:
            raise ValueError("empty dataset")
        bad = np.flatnonzero(~np.isfinite(means).all(axis=1))
        if bad.size:
            raise ValueError(f"item {bad[0]}: mean contains non-finite entries")
        self._means = _readonly(means.view())  # not the caller's array's flag
        self.full_index = _readonly(np.asarray(full_index, dtype=np.intp))
        self.full_covs = _readonly(full_covs)
        self.diag_index = _readonly(np.asarray(diag_index, dtype=np.intp))
        self.diag_vars = _readonly(diag_vars)
        self._items, self._cells = items, cells

        w = np.ones(n) if weights is None else np.asarray(weights, dtype=float)
        if w.shape != (n,):
            raise ValueError(f"weights must have shape ({n},), got {w.shape}")
        if not np.all(np.isfinite(w)) or np.any(w < 0.0):
            raise ValueError("weights must be finite and non-negative")
        with np.errstate(over="ignore"):  # an infinite total fails in global_cov
            total = w.sum()
        if total <= 0.0:
            raise ValueError("weights must have a positive total")
        self.weights = _readonly(w)

        names = tuple(f"x{i + 1}" for i in range(d)) if dim_names is None else tuple(dim_names)
        if len(names) != d:
            raise ValueError(f"dim_names length {len(names)} does not match dimension {d}")
        self.dim_names = names

        if labels is not None:
            labels = tuple(str(x) for x in labels)
            if len(labels) != n:
                raise ValueError("labels length does not match item count")
        self.labels = labels

    @property
    def items(self) -> tuple[Distribution, ...]:
        """The rows as Distribution objects, built from the table on first
        read and cached: ``Point`` for a row in neither block, ``Gaussian``
        for a full-block row, and for a diagonal-block row ``ProductOf1D`` of
        its cells, or without cells the ``Gaussian`` with that diagonal."""
        if self._items is None:
            m = self._means
            rows = {int(i): Gaussian(m[i], k) for i, k in zip(self.full_index, self.full_covs)}
            for j, (i, v) in enumerate(zip(self.diag_index, self.diag_vars)):
                rows[int(i)] = (Gaussian(m[i], np.diag(v)) if self._cells is None
                                else ProductOf1D(self._cells[j]))
            self._items = tuple(rows[i] if i in rows else Point(x) for i, x in enumerate(m))
        return self._items

    @property
    def dim(self) -> int:
        return self._means.shape[1]

    def __len__(self) -> int:
        return self._means.shape[0]

    def means(self) -> np.ndarray:
        """Item means as an (N, D) array (the stored column; read-only)."""
        return self._means

    def rescale(self, scale, offset) -> "UncertainDataset":
        """The dataset under the per-axis map x -> scale * x + offset (scale > 0).

        Only the columns are mapped: means to scale * m + offset, covariances
        to S Psi S with S = diag(scale), under ``np.errstate``.  The items are
        built from them, equal to the table bit for bit, so a values or
        cluster row reads back as the moment-equal ``Gaussian``.
        """
        s, o = _as_vector(scale, "scale"), _as_vector(offset, "offset")
        if s.size != self.dim or o.size != self.dim:
            raise ValueError(f"scale/offset length must be {self.dim}")
        if np.any(s <= 0.0):
            raise ValueError("scale entries must be positive")
        with np.errstate(over="ignore", invalid="ignore"):
            return UncertainDataset._from_table(
                s * self._means + o,
                self.full_index, self.full_covs * np.outer(s, s),
                self.diag_index, self.diag_vars * (s * s),
                weights=self.weights.copy(), dim_names=self.dim_names, labels=self.labels,
            )
