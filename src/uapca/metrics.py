"""Distance between PCA inputs and a Monte-Carlo validation harness.

A PCA fit is fully determined by its mean vector and covariance matrix, so
two fits are compared by interpreting those moments as multivariate normals
and measuring the Hellinger distance between them:

    BC(p, q) = integral sqrt(p(x) q(x)) dx          (Bhattacharyya coefficient)
    H(p, q)  = sqrt(1 - BC(p, q))                   in [0, 1]

For normals BC has a closed form, exp(-D_B) with

    D_B = 1/8 dmu^T S^-1 dmu + 1/2 ln(det S / sqrt(det Sp det Sq)),
    S   = (Sp + Sq) / 2.

The sampling harness draws from every item, pools the samples, and fits
plain PCA moments to them; driving the sample count up makes the pooled
moments converge to the closed-form global covariance, which is the
correctness argument for the accumulation scheme.  ``sampled_pca`` draws
the rows, for any item kind.  The convergence experiment, whose items are
Gaussians with one shared covariance, draws the same pooled moments from
their sufficient statistics (item sample means and one Wishart scatter),
so a pass costs the same at any sample count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .cov import global_cov
from .items import Gaussian
from .model import UncertainDataset, _frozen_vector, _median, _population_moments, _readonly

_REG_EPS = 1e-12
_TARGET_H = 0.1
DEFAULT_SAMPLE_COUNTS = (16, 64, 256, 1024, 4096)


@dataclass(eq=False, repr=False)
class PcaSummary:
    """Mean and covariance of a PCA input, read as a multivariate normal."""

    mean: np.ndarray
    cov: np.ndarray

    def __post_init__(self):
        m = _frozen_vector(self.mean, "mean")
        k = np.asarray(self.cov, dtype=float)
        if k.shape != (m.size, m.size):
            raise ValueError(f"covariance shape {k.shape} does not match mean length {m.size}")
        if not np.all(np.isfinite(k)):
            raise ValueError("covariance contains non-finite entries")
        self.mean = m
        self.cov = _readonly((k + k.T) / 2.0)


def _logdets(sp: np.ndarray, sq: np.ndarray, sbar: np.ndarray):
    out = []
    for m in (sp, sq, sbar):
        sign, logdet = np.linalg.slogdet(m)
        if sign <= 0.0 or not np.isfinite(logdet):
            return None
        out.append(logdet)
    return out


def bhattacharyya_coeff(p: PcaSummary, q: PcaSummary) -> float:
    """Bhattacharyya coefficient of two Gaussian summaries, in [0, 1].

    Singular covariances are regularized by adding 1e-12 * I to both inputs
    symmetrically; if that still leaves a singular matrix the inputs are
    rejected.
    """
    if p.mean.size != q.mean.size:
        raise ValueError(
            f"summaries have different dimensions: {p.mean.size} vs {q.mean.size}"
        )
    sp, sq = p.cov, q.cov
    sbar = (sp + sq) / 2.0
    dets = _logdets(sp, sq, sbar)
    if dets is None:
        eye = _REG_EPS * np.eye(sp.shape[0])
        sp = sp + eye
        sq = sq + eye
        sbar = (sp + sq) / 2.0
        dets = _logdets(sp, sq, sbar)
        if dets is None:
            raise ValueError("covariances are irrecoverably singular")
    ld_p, ld_q, ld_bar = dets
    dmu = p.mean - q.mean
    maha = float(dmu @ np.linalg.solve(sbar, dmu))
    d_b = 0.125 * maha + 0.5 * (ld_bar - 0.5 * (ld_p + ld_q))
    return float(np.clip(np.exp(-d_b), 0.0, 1.0))


def hellinger(p: PcaSummary, q: PcaSummary) -> float:
    """Hellinger distance sqrt(1 - BC), clamped into [0, 1]."""
    return float(np.sqrt(np.clip(1.0 - bhattacharyya_coeff(p, q), 0.0, 1.0)))


def sampled_pca(
    ds: UncertainDataset, samples_per_item: int, rng: np.random.Generator
) -> PcaSummary:
    """Monte-Carlo counterpart of the closed-form global covariance.

    Draws ``samples_per_item`` samples from every item in order, pools them
    into one (M, D) array, and returns the pooled mean and population (1/M)
    covariance.  Weights are ignored: every item contributes the same number
    of draws.  Works for any item kind; deterministic for a seeded generator.
    """
    if not isinstance(samples_per_item, (int, np.integer)) or samples_per_item < 1:
        raise ValueError(f"samples_per_item must be a positive integer, got {samples_per_item!r}")
    pooled = np.concatenate([item.sample(int(samples_per_item), rng) for item in ds.items])
    return PcaSummary(*_population_moments(pooled, overwrite=True))


# ---------------------------------------------------------------------------
# Convergence experiment.


@dataclass(frozen=True)
class ExperimentConfig:
    """Setup for the sampling-convergence experiment.

    Per dimension D a synthetic dataset of ``n_items`` Gaussians is built:
    a base covariance Sigma = Q diag(u) Q^T with u uniform in [0.5, 2] and Q
    a seeded random rotation, item means drawn from N(0, Sigma), and one
    shared item covariance Psi obtained by reversing the elements of Sigma
    (row-major flatten, reverse, reshape), then symmetrizing and projecting
    onto the PSD cone.
    """

    dims: tuple[int, ...] = tuple(range(2, 13))
    sample_counts: tuple[int, ...] = DEFAULT_SAMPLE_COUNTS
    n_items: int = 10
    runs: int = 40
    rng_seed: int = 0

    def __post_init__(self):
        dims = tuple(int(d) for d in self.dims)
        if not dims or any(d < 1 for d in dims):
            raise ValueError(f"dims must be positive integers, got {self.dims!r}")
        counts = tuple(int(c) for c in self.sample_counts)
        if not counts or any(c < 1 for c in counts):
            raise ValueError(f"sample_counts must be positive, got {self.sample_counts!r}")
        if any(b <= a for a, b in zip(counts, counts[1:])):
            raise ValueError("sample_counts must be strictly increasing")
        if int(self.runs) < 1:
            raise ValueError(f"runs must be >= 1, got {self.runs!r}")
        if int(self.n_items) < 2:
            raise ValueError(f"n_items must be >= 2, got {self.n_items!r}")
        if int(self.rng_seed) < 0:
            raise ValueError(f"rng_seed must be >= 0, got {self.rng_seed!r}")
        object.__setattr__(self, "dims", dims)
        object.__setattr__(self, "sample_counts", counts)
        object.__setattr__(self, "runs", int(self.runs))
        object.__setattr__(self, "n_items", int(self.n_items))
        object.__setattr__(self, "rng_seed", int(self.rng_seed))


@dataclass(frozen=True)
class ExperimentRow:
    dim: int
    samples: int
    median_hellinger: float
    runs: int
    seed: int


def _psd_projection(m: np.ndarray) -> np.ndarray:
    sym = (m + m.T) / 2.0
    evals, evecs = np.linalg.eigh(sym)
    out = (evecs * np.clip(evals, 0.0, None)) @ evecs.T
    return (out + out.T) / 2.0


def _experiment_dataset(dim: int, n_items: int, seed: int) -> UncertainDataset:
    rng = np.random.default_rng([seed, dim])
    gauss = rng.standard_normal((dim, dim))
    q_mat, r_mat = np.linalg.qr(gauss)
    q_mat = q_mat * np.sign(np.diag(r_mat))  # canonical rotation, sign-fixed
    spectrum = rng.uniform(0.5, 2.0, size=dim)
    sigma = (q_mat * spectrum) @ q_mat.T
    sigma = (sigma + sigma.T) / 2.0

    evals, evecs = np.linalg.eigh(sigma)
    factor = evecs * np.sqrt(np.clip(evals, 0.0, None))
    means = rng.standard_normal((n_items, dim)) @ factor.T

    psi = _psd_projection(sigma.ravel()[::-1].reshape(dim, dim))
    return UncertainDataset(tuple(Gaussian(mu, psi) for mu in means))


def _pooled_gaussian_moments(means: np.ndarray, factor: np.ndarray, n: int,
                             rng: np.random.Generator) -> PcaSummary:
    """What ``sampled_pca`` returns for n draws from each item N(m_i, F F^T),
    drawn from its sufficient statistics instead of its N n rows.

    ``means`` is the (N, D) stack of the m_i and ``factor`` the (D, D) F.
    The item sample means are N(m_i, F F^T / n), drawn as m_i + F z_i / sqrt(n).
    Independent of them, the pooled scatter of the rows about their item
    means is one Wishart W(F F^T, df) draw, df = N (n - 1): F A A^T F^T with
    A lower-triangular, sqrt(chi^2(df - i)) on its diagonal and N(0, 1)
    below it (Bartlett's decomposition), or F Z^T Z F^T with Z a (df, D)
    standard-normal matrix when df < D (zero when n = 1).  The pooled
    covariance is then the population covariance of the sample means plus
    that scatter over N n.  A draw costs O(N D + D^3), whatever n is.
    """
    count, dim = means.shape
    sample_means = means + rng.standard_normal((count, dim)) @ factor.T / math.sqrt(n)
    df = count * (n - 1)
    if df >= dim:
        a = np.zeros((dim, dim))
        np.fill_diagonal(a, np.sqrt(rng.chisquare(df - np.arange(dim))))
        a[np.tril_indices(dim, -1)] = rng.standard_normal(dim * (dim - 1) // 2)
    else:
        a = rng.standard_normal((df, dim)).T
    fa = factor @ a
    mean, between = _population_moments(sample_means, overwrite=True)
    return PcaSummary(mean, between + fa @ fa.T / (count * n))


def run_convergence_experiment(cfg: ExperimentConfig) -> list[ExperimentRow]:
    """Median Hellinger between sampled and closed-form PCA summaries.

    For every (dim, sample count) cell the experiment runs ``cfg.runs``
    independent sampling passes and reports the median Hellinger distance
    to the closed-form summary at s = 1.  Rows come out ordered by dim, then
    sample count.

    Every item of the synthetic dataset is a Gaussian with the same
    covariance, so a pass draws the pooled moments of its rows from their
    sufficient statistics (``_pooled_gaussian_moments``), with the same law
    as ``sampled_pca`` on that dataset but without drawing a row.  Each pass
    has its own generator, seeded from (seed, dim, count, run), so the rows
    are fully determined by the config.  The passes run one after another
    in this process.
    """
    rows = []
    for dim in cfg.dims:
        ds = _experiment_dataset(dim, cfg.n_items, cfg.rng_seed)
        means, factor = ds.means(), ds.items[0]._sampling_factor()
        g = global_cov(ds)
        closed = PcaSummary(mean=g.mean, cov=g.at(1.0))
        for count in cfg.sample_counts:
            dists = [
                hellinger(_pooled_gaussian_moments(
                    means, factor, count, np.random.default_rng([cfg.rng_seed, dim, count, run])),
                    closed)
                for run in range(cfg.runs)
            ]
            rows.append(ExperimentRow(dim=dim, samples=count, median_hellinger=_median(dists),
                                      runs=cfg.runs, seed=cfg.rng_seed))
    return rows


def samples_to_reach(rows: list[ExperimentRow], dim: int, target: float = _TARGET_H) -> int | None:
    """Smallest sample count whose median Hellinger is below target."""
    for row in rows:
        if row.dim == dim and row.median_hellinger < target:
            return row.samples
    return None
