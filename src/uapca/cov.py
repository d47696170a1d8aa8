"""Global covariance of a dataset of distributions.

The covariance over all items decomposes into the covariance of the item
means plus the expected item covariance:

    K(s) = E_w[(m - x_bar)(m - x_bar)^T] + s^2 * E_w[Psi]

where m and Psi are the per-item mean and covariance, x_bar = E_w[m], E_w
is the weight-normalized average over items, and s scales the contribution
of the item uncertainties.  s = 0 recovers ordinary PCA on the item means;
the s -> infinity limit is the expected-covariance term alone.  The means
term is accumulated about x_bar (two passes), so K does not depend on where
the data sits relative to the origin.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import UncertainDataset, _readonly


@dataclass(eq=False, repr=False)
class GlobalCov:
    """Result of the global covariance accumulation.

    term_means is the centered covariance of the item means and
    term_uncertainty the weighted average of the item covariances; ``at(s)``
    forms the covariance used for PCA at uncertainty scale s.  No
    eigenvalue clamping is applied here; the matrix is reported raw.
    """

    mean: np.ndarray
    term_means: np.ndarray
    term_uncertainty: np.ndarray

    def at(self, s: float) -> np.ndarray:
        """K(s) = term_means + s^2 * term_uncertainty for s >= 0; term_uncertainty
        alone at s = inf.  A NaN or negative s raises ``ValueError``, and so
        does a finite s at which finite terms give a K that overflows."""
        s = float(s)
        if math.isnan(s) or s < 0.0:
            raise ValueError(f"s must be >= 0 or inf, got {s}")
        if math.isinf(s):
            return self.term_uncertainty
        with np.errstate(over="ignore", invalid="ignore"):  # non-finite terms: eig_sym rejects K
            k = self.term_means + (s * s) * self.term_uncertainty
        if not np.isfinite(k).all() and all(
                np.isfinite(t).all() for t in (self.term_means, self.term_uncertainty)):
            raise ValueError(
                f"K(s) overflows the float range at scale s = {s!r}; "
                f"s = inf gives the uncertainty-only limit"
            )
        return _readonly(k)


def _symmetric(a: np.ndarray) -> np.ndarray:
    return _readonly((a + a.T) / 2.0)


def global_cov(ds: UncertainDataset) -> GlobalCov:
    """Accumulate the global covariance from the dataset's moment columns.

    The means term is the weighted scatter of the item means about their
    weighted average, (C o w)^T C / sum(w) with C = M - x_bar; the
    uncertainty term is sum(w_i Psi_i) / sum(w).  The scale s never enters
    the accumulation; :meth:`GlobalCov.at` forms K(s) from the two terms.

    The uncertainty sum adds the items in their order, block by block: the
    off-diagonal entries from the full block, then the diagonal from one
    pass over the diagonals of every item that is not a point.  Points and
    the off-diagonal zeros of diagonal items are skipped; they would add
    exact zeros, so the result has the bits of a loop over every item.
    Overflow gives non-finite entries and no numpy warning; ``eig_sym``
    rejects them.
    """
    w = ds.weights
    d = ds.dim
    with np.errstate(over="ignore", invalid="ignore"):
        wsum = w.sum()
        means = ds.means()
        x_bar = w @ means / wsum
        c = means - x_bar
        t_means = (c * w[:, None]).T @ c / wsum

        full = w[ds.full_index, None, None] * ds.full_covs
        diag = np.concatenate([np.diagonal(full, axis1=1, axis2=2),
                               w[ds.diag_index, None] * ds.diag_vars])
        diag = diag[np.argsort(np.concatenate([ds.full_index, ds.diag_index]))]
        # 0.0 + sum, as a loop from zeros adds: a sum of -0.0 entries is +0.0.
        t_unc = 0.0 + np.add.reduce(full, axis=0)
        if len(diag):
            # accumulate, not reduce: numpy reduces one column (D = 1)
            # pairwise instead of in item order.
            t_unc[np.diag_indices(d)] = 0.0 + np.add.accumulate(diag, axis=0)[-1]
        t_unc /= wsum
        return GlobalCov(
            mean=_readonly(x_bar),
            term_means=_symmetric(t_means),
            term_uncertainty=_symmetric(t_unc),
        )

