"""Projection of points and distributions into a fitted PCA basis."""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from .eigen import PcaModel, eig_sym
from .model import Distribution, Gaussian, Point, UncertainDataset, _require_psd


def project_point(model: PcaModel, x) -> np.ndarray:
    """Project a point: A^T (x - mean)."""
    return project_items(model, [Point(x)])[0][0]


def project_items(
    model: PcaModel, ds: UncertainDataset | Sequence[Distribution], cov_scale: float = 1.0
) -> tuple[np.ndarray, np.ndarray]:
    """Project every item's moments into the component basis in one pass.

    Takes a dataset, or a sequence of items made into one.  Returns the
    means A^T (E[d] - mean) stacked (N, q) and the covariances cov_scale *
    A^T Cov[d] A stacked (N, q, q): the exact moments of the projected
    items, since affine maps commute with taking moments.  Each covariance
    block of the dataset is projected as one stack: the full block as
    A^T F A, the diagonal block as (A^T scaled by each row of variances) A,
    with no D x D matrix per item, and points give exact zeros.  The
    arithmetic runs under ``np.errstate``, and the result is checked once:
    finite, and each covariance PSD up to ``PSD_RTOL``.
    """
    if not isinstance(ds, UncertainDataset):
        ds = UncertainDataset(ds)
    means = ds.means()
    if means.shape[1] != model.mean.size:
        raise ValueError(
            f"distribution dimension {means.shape[1]} does not match "
            f"model dimension {model.mean.size}"
        )
    a_t = model.components.T
    with np.errstate(over="ignore", invalid="ignore"):
        # A stacked matrix-vector product rounds each row as a_t @ v does;
        # (means - mean) @ A differs in the last bit and would change output bytes.
        out_means = np.matmul(a_t, (means - model.mean)[..., None])[..., 0]
        covs = np.zeros((len(means), a_t.shape[0], a_t.shape[0]))
        for index, block in ((ds.full_index, a_t @ ds.full_covs @ a_t.T),
                             (ds.diag_index, (a_t * ds.diag_vars[:, None, :]) @ a_t.T)):
            covs[index] = (block + block.swapaxes(1, 2)) / 2.0
        covs *= cov_scale
    if not (np.all(np.isfinite(out_means)) and np.all(np.isfinite(covs))):
        raise ValueError("projected moments contain non-finite entries")
    _require_psd(covs, lambda i: f"projected covariance of item {i}")
    return out_means, covs


def project_distribution(model: PcaModel, d: Distribution) -> Gaussian:
    """``project_items`` on one item, returned as a Gaussian."""
    means, covs = project_items(model, [d])
    return Gaussian(means[0], covs[0])


def _ellipse_outlines(means, covs, k_sigmas, segments: int) -> np.ndarray:
    """Closed isolines of N(means[i], covs[i]) at each of k_sigmas, for all i at once.

    Takes means (N, 2) and covariances (N, 2, 2) and returns (N, k,
    segments + 1, 2): ring j of item i is means[i] + k_sigmas[j] * L_i (cos t,
    sin t), with the eigen factors L_i of the whole stack from one
    ``eig_sym`` call.  Each ring is scaled and shifted as a whole array and
    written into one preallocated result; the last vertex of each ring
    repeats the first.
    """
    pairs = eig_sym(covs)
    factors = pairs.vectors * np.sqrt(pairs.values)[..., None, :]
    theta = np.linspace(0.0, 2.0 * np.pi, segments, endpoint=False)
    # (N, 2, segments): x and y rows, so scaling and the mean shift run along
    # the long axis before one transposed copy into the result.
    rings = np.matmul(factors, np.stack([np.cos(theta), np.sin(theta)]))
    out = np.empty((len(means), len(k_sigmas), segments + 1, 2))
    for j, k_sigma in enumerate(k_sigmas):
        ring = k_sigma * rings
        ring += means[..., None]
        out[:, j, :segments] = ring.swapaxes(-1, -2)
    out[:, :, segments] = out[:, :, 0]
    return out


def ellipse_outline(g: Gaussian, k_sigma: float, segments: int = 64) -> np.ndarray:
    """Isoline polyline of a 2-d Gaussian at k_sigma standard deviations.

    Returns a closed (segments + 1, 2) polyline: mean + k L (cos t, sin t)
    where L L^T equals the covariance (eigen factor).  The last vertex
    repeats the first.
    """
    if g.dim != 2:
        raise ValueError(f"ellipse outline requires a 2-d Gaussian, got dimension {g.dim}")
    if not (k_sigma > 0.0):
        raise ValueError(f"k_sigma must be positive, got {k_sigma}")
    if segments < 8:
        raise ValueError(f"segments must be >= 8, got {segments}")
    return _ellipse_outlines(g.mean()[None], g.cov()[None], (k_sigma,), segments)[0, 0]
