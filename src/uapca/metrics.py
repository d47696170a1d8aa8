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
so a pass costs the same at any sample count.  Its draws are seeded per
(seed, dim, samples) cell: one normal and one chi-square stream, whose
first ``runs`` passes the cell runs.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import groupby

import numpy as np

from .cov import global_cov
from .model import (UncertainDataset, _frozen_vector, _median, _population_moments, _psd_factor,
                    _readonly, _symmetrized)

_REG_EPS = 1e-12
_TARGET_H = 0.1
DEFAULT_SAMPLE_COUNTS = (16, 64, 256, 1024, 4096)
# The most floats of (passes, N, D) item sample means the experiment draws at once.
_CHUNK_FLOATS = 1 << 16


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


def _logdets(sp: np.ndarray, sq: np.ndarray, sbar: np.ndarray) -> np.ndarray:
    """(3, P) log-determinants of sp, sq and sbar; NaN where not finite or of sign <= 0."""
    lds = [np.where((sign > 0.0) & np.isfinite(ld), ld, np.nan)
           for sign, ld in map(np.linalg.slogdet, (sp, sq, sbar))]
    return np.array(np.broadcast_arrays(*lds))


def _bhattacharyya(dmu: np.ndarray, sp: np.ndarray, sq: np.ndarray) -> np.ndarray:
    """``bhattacharyya_coeff`` of N(mu_p[j], sp[j]) and N(mu_q, sq) for the
    (P, D) stack dmu = mu_p - mu_q and the (P, D, D) stack sp, in batched
    calls; the 1e-12 * I retry applies to each pass on its own."""
    sbar = (sp + sq) / 2.0
    ld = _logdets(sp, sq, sbar)
    bad = np.isnan(ld).any(axis=0)
    if bad.any():
        eye = _REG_EPS * np.eye(sq.shape[-1])
        sp_reg, sq_reg = sp[bad] + eye, sq + eye
        sbar[bad] = (sp_reg + sq_reg) / 2.0
        ld[:, bad] = _logdets(sp_reg, sq_reg, sbar[bad])
        if np.isnan(ld).any():
            raise ValueError("covariances are irrecoverably singular")
    # A matmul dot: einsum's moves the last bit of some distances.
    maha = (dmu[:, None, :] @ np.linalg.solve(sbar, dmu[..., None]))[:, 0, 0]
    d_b = 0.125 * maha + 0.5 * (ld[2] - 0.5 * (ld[0] + ld[1]))
    return np.clip(np.exp(-d_b), 0.0, 1.0)


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
    return float(_bhattacharyya((p.mean - q.mean)[None], p.cov[None], q.cov)[0])


def hellinger(p: PcaSummary, q: PcaSummary) -> float:
    """Hellinger distance sqrt(1 - BC), clamped into [0, 1]."""
    return float(np.sqrt(np.clip(1.0 - bhattacharyya_coeff(p, q), 0.0, 1.0)))


def sampled_pca(
    ds: UncertainDataset, samples_per_item: int, rng: np.random.Generator
) -> PcaSummary:
    """Monte-Carlo counterpart of the closed-form global covariance.

    Draws n = ``samples_per_item`` samples from every item in order, pools
    them into one (M, D) array, and returns the pooled mean and covariance,
    each row of item i weighted w_i / (n sum(w)), so that their expectation
    is the weighted closed form.  With equal weights that is the population
    (1/M) mean and covariance.  Works for any item kind; deterministic for
    a seeded generator.
    """
    if not isinstance(samples_per_item, (int, np.integer)) or samples_per_item < 1:
        raise ValueError(f"samples_per_item must be a positive integer, got {samples_per_item!r}")
    n, w = int(samples_per_item), ds.weights
    pooled = np.concatenate([item.sample(n, rng) for item in ds.items])
    if np.all(w == w[0]):
        return PcaSummary(*_population_moments(pooled, overwrite=True))
    row_w = np.repeat(w / (n * w.sum()), n)
    mean = row_w @ pooled
    centered = pooled - mean
    return PcaSummary(mean, (centered * row_w[:, None]).T @ centered)


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
        if int(self.n_items) * (counts[-1] - 1) >= 1 << 63:
            raise ValueError(f"sample count {counts[-1]} too large: n_items * (count - 1) >= 2**63")
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


def _experiment_dataset(dim: int, n_items: int, seed: int) -> tuple[UncertainDataset, np.ndarray]:
    """``ExperimentConfig``'s dataset for one dim, as a table, and F with F F^T = Psi."""
    rng = np.random.default_rng([seed, dim])
    gauss = rng.standard_normal((dim, dim))
    q_mat, r_mat = np.linalg.qr(gauss)
    q_mat = q_mat * np.sign(np.diag(r_mat))  # canonical rotation, sign-fixed
    spectrum = rng.uniform(0.5, 2.0, size=dim)
    sigma = (q_mat * spectrum) @ q_mat.T
    sigma = (sigma + sigma.T) / 2.0
    means = rng.standard_normal((n_items, dim)) @ _psd_factor(sigma).T
    psi = _psd_projection(sigma.ravel()[::-1].reshape(dim, dim))
    psis = np.broadcast_to(psi, (n_items, dim, dim))
    return UncertainDataset._from_table(means, range(n_items), psis), _psd_factor(psi)


def _cell_streams(seed: int, dim: int, count: int) -> tuple[np.random.Generator, ...]:
    """The normal and the chi-square generator of one (seed, dim, samples) cell."""
    return tuple(np.random.default_rng([seed, dim, count, stream]) for stream in (0, 1))


def _pooled_gaussian_moments(means: np.ndarray, factor: np.ndarray,
                             passes) -> tuple[np.ndarray, np.ndarray]:
    """What ``sampled_pca`` returns for n draws from each item N(m_i, F F^T),
    for every pass (n, normal, chi) of the sequence ``passes``, drawn from
    its sufficient statistics with the cell generators ``normal`` and
    ``chi`` (``_cell_streams``), not from its N n rows.

    ``means`` is the (N, D) stack of the m_i and ``factor`` the (D, D) F.
    The item sample means are N(m_i, F F^T / n), drawn as m_i + F z_i / sqrt(n).
    Independent of them, the pooled scatter of the rows about their item
    means is one Wishart W(F F^T, df) draw, df = N (n - 1): F A A^T F^T with
    A lower-triangular, sqrt(chi^2(df - i)) on its diagonal and N(0, 1)
    below it (Bartlett's decomposition), or F Z^T Z F^T with Z a (df, D)
    standard-normal matrix when df < D (zero when n = 1), Z^T padded to A's
    shape with zero columns.  The pooled covariance is then the population
    covariance of the sample means plus that scatter over N n.

    Each pass takes the next draws of its generators: from ``normal`` its
    N D values of z, then its Wishart normals (below the diagonal, or Z),
    and from ``chi`` its D chi-squares.  A group of consecutive passes with
    the same generators draws in one call to each, straight into the
    buffer z is a view of, so a cell's passes have the same bits however
    they are split between calls.  The passes then run at once on stacked
    arrays: the (P, D) means and symmetrized (P, D, D) covariances, a
    non-finite one rejected as ``PcaSummary`` does.  A pass costs
    O(N D + D^3), whatever n is.
    """
    count, dim = means.shape
    drawn = count * dim
    below, diag = np.tril_indices(dim, -1), np.arange(dim)
    groups = [(n, len(list(group)), normal, chi) for (n, normal, chi), group in groupby(passes)]
    wishart = [below[0].size if count * (n - 1) >= dim else count * (n - 1) * dim
               for n, *_ in groups]
    widest = max(wishart)
    buf = np.empty((len(passes), drawn + widest))
    a = np.zeros((len(passes), dim, dim))
    start = 0
    for (n, k, normal, chi), width in zip(groups, wishart):
        rows, df = slice(start, start + k), count * (n - 1)
        if width == widest:
            normal.standard_normal(out=buf[rows])
        else:  # a narrower cell than the chunk's widest: its rows are not contiguous
            buf[rows, :drawn + width] = normal.standard_normal((k, drawn + width))
        w = buf[rows, drawn:drawn + width]
        if df >= dim:
            a[rows, diag, diag] = np.sqrt(chi.chisquare(df - diag, (k, dim)))
            a[rows, below[0], below[1]] = w
        else:
            a[rows, :, :df] = w.reshape(k, df, dim).swapaxes(1, 2)
        start += k
    z = buf[:, :drawn].reshape(len(passes), count, dim)
    counts = [c for c, *_ in passes]
    n = np.array(counts, dtype=float)[:, None, None]
    pooled = np.array([count * c for c in counts], dtype=float)[:, None, None]
    mean, between = _population_moments(means + z @ factor.T / np.sqrt(n), overwrite=True)
    # Each input goes before the next stacked product: these set the run's peak memory.
    del buf, z, w
    fa = factor @ a
    del a
    cov = between + fa @ fa.swapaxes(1, 2) / pooled
    return mean, _symmetrized(cov, lambda j: "covariance")


def run_convergence_experiment(cfg: ExperimentConfig) -> list[ExperimentRow]:
    """Median Hellinger between sampled and closed-form PCA summaries.

    For every (dim, sample count) cell the experiment runs ``cfg.runs``
    independent sampling passes and reports the median Hellinger distance
    to the closed-form summary at s = 1.  Rows come out ordered by dim, then
    sample count.

    Every item of the synthetic dataset is a Gaussian with the same
    covariance, so a pass draws the pooled moments of its rows from their
    sufficient statistics (``_pooled_gaussian_moments``), with the same law
    as ``sampled_pca`` on that dataset but without drawing a row.  Each
    (seed, dim, samples) cell has two generators (``_cell_streams``), and
    its passes are their first ``cfg.runs`` passes: a cell's row does not
    depend on which other dims or sample counts are listed, and raising
    ``cfg.runs`` keeps the draws of the earlier passes.  A dimension's
    passes run in chunks of at most ``_CHUNK_FLOATS`` drawn floats (and at
    least one pass), on stacked arrays, with the bits of one pass at a time.
    """
    rows = []
    for dim in cfg.dims:
        ds, factor = _experiment_dataset(dim, cfg.n_items, cfg.rng_seed)
        g = global_cov(ds)
        closed = PcaSummary(mean=g.mean, cov=g.at(1.0))
        cells = [(count, *_cell_streams(cfg.rng_seed, dim, count)) for count in cfg.sample_counts]
        passes = [cell for cell in cells for _ in range(cfg.runs)]
        size = max(1, _CHUNK_FLOATS // (cfg.n_items * dim))
        dists = []
        for i in range(0, len(passes), size):
            mean, cov = _pooled_gaussian_moments(ds.means(), factor, passes[i:i + size])
            bc = _bhattacharyya(mean - closed.mean, cov, closed.cov)
            dists.extend(np.sqrt(np.clip(1.0 - bc, 0.0, 1.0)))
        rows += [ExperimentRow(dim, count, _median(cell), cfg.runs, cfg.rng_seed)
                 for count, cell in zip(cfg.sample_counts, np.reshape(dists, (-1, cfg.runs)))]
    return rows


def samples_to_reach(rows: list[ExperimentRow], dim: int, target: float = _TARGET_H) -> int | None:
    """Smallest sample count whose median Hellinger is below target."""
    for row in rows:
        if row.dim == dim and row.median_hellinger < target:
            return row.samples
    return None
