"""Projection of points and distributions into a fitted PCA basis."""

from __future__ import annotations

from collections.abc import Iterator, Sequence
from typing import TYPE_CHECKING

import numpy as np

from .eigen import PcaModel, eig_sym
from .model import PSD_RTOL, UncertainDataset, _require_psd

if TYPE_CHECKING:
    from .items import Distribution


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
    finite, and each block row's covariance PSD up to ``PSD_RTOL`` times
    the larger of its own scale and 2 cov_scale tr(Cov[d]).  A row inside
    that but outside ``eig_sym``'s own rule has its negative eigenvalues
    set to zero, so that the renderer's solve takes it; no other row
    changes.
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
    # Point rows are exact zeros; the two blocks' rows are disjoint.
    blocks = np.sort(np.concatenate([ds.full_index, ds.diag_index]))
    # A^T Psi A has no eigenvalue below Psi's lowest, which the PSD rule and
    # Psi's trace bound: see GlobalCov.eig.
    own = np.zeros(len(covs))
    own[ds.full_index] = np.trace(ds.full_covs, axis1=1, axis2=2)
    own[ds.diag_index] = ds.diag_vars.sum(axis=1)
    with np.errstate(over="ignore", invalid="ignore"):
        floor = 2.0 * cov_scale * own[blocks]
    lo, hi = _require_psd(covs[blocks], lambda i: f"projected covariance of item {blocks[i]}",
                          floor)
    # The rows that eig_sym would refuse get their negative eigenvalues as zeros.
    clamp = blocks[lo < -PSD_RTOL * np.maximum(np.abs(lo), np.abs(hi))]
    if clamp.size:
        values, vectors = np.linalg.eigh(covs[clamp])
        fixed = (vectors * np.maximum(values, 0.0)[:, None, :]) @ vectors.swapaxes(1, 2)
        covs[clamp] = (fixed + fixed.swapaxes(1, 2)) / 2.0 + 0.0
    return out_means, covs


def _ellipse_outlines(means, covs, k_sigmas, segments: int, items: int):
    """Closed isolines of N(means[i], covs[i]) at each of k_sigmas, solved now
    with one ``eig_sym`` call for the whole (N, 2, 2) stack.

    Returns the least and the greatest vertex coordinate of all the
    outlines, each (2,) (inf and -inf for no items), and a function; each
    call of it yields the outlines anew, (n, k, segments + 1, 2) for each
    run of n <= items items.  Ring j of item i is means[i] + k_sigmas[j] *
    L_i (cos t, sin t), L_i the item's eigen factor; its last vertex
    repeats the first.  The bounds take k * x + m of each item's extreme
    L_i (cos t, sin t) only: for k > 0, rounding k * x and x + m keeps
    the order of x, so that is the extreme vertex bit for bit.
    """
    pairs = eig_sym(covs)
    factors = pairs.vectors * np.sqrt(pairs.values)[..., None, :]
    theta = np.linspace(0.0, 2.0 * np.pi, segments, endpoint=False)
    trig = np.stack([np.cos(theta), np.sin(theta)])
    least, most = np.empty((2, len(means), 2))
    for start in range(0, len(means), items):
        rings = np.matmul(factors[start:start + items], trig)
        rings.min(axis=2, out=least[start:start + items])
        rings.max(axis=2, out=most[start:start + items])
    bounds = (np.min([k * least + means for k in k_sigmas], axis=(0, 1), initial=np.inf),
              np.max([k * most + means for k in k_sigmas], axis=(0, 1), initial=-np.inf))

    def chunks() -> Iterator[np.ndarray]:
        for start in range(0, len(means), items):
            # (n, 2, segments): x and y rows, so scaling and the mean shift run
            # along the long axis before one transposed copy into the result.
            rings = np.matmul(factors[start:start + items], trig)
            out = np.empty((len(rings), len(k_sigmas), segments + 1, 2))
            for j, k_sigma in enumerate(k_sigmas):
                out[:, j, :segments] = (k_sigma * rings
                                        + means[start:start + items, :, None]).swapaxes(-1, -2)
            out[:, :, segments] = out[:, :, 0]
            del rings  # not held while the caller formats out
            yield out

    return bounds, chunks
