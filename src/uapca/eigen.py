"""Symmetric eigendecomposition and principal component selection.

The solver is LAPACK's symmetric ``eigh`` through numpy; this module adds
input validation and a deterministic output contract on top of it:
descending order, a round-off clamp for tiny negative eigenvalues, and a
sign convention for the eigenvectors.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import PSD_RTOL, SYM_RTOL, _as_vector, _readonly


@dataclass(frozen=True)
class EigenPairs:
    """Eigenvalues in descending order with matching eigenvector columns."""

    values: np.ndarray
    vectors: np.ndarray


@dataclass(frozen=True)
class PcaModel:
    """A fitted PCA basis: center, top-q component columns, full spectrum."""

    mean: np.ndarray
    components: np.ndarray
    eigenvalues: np.ndarray
    q: int


def eig_sym(k) -> EigenPairs:
    """Eigendecompose a symmetric PSD matrix with LAPACK ``eigh``.

    Eigenvalues are sorted in descending order; exact ties keep the solver's
    emission order (stable sort), which is deterministic but otherwise
    arbitrary.  Small negative eigenvalues inside (-1e-9 * lambda_max, 0)
    are round-off and reported as zero; anything more negative raises,
    since it signals a non-PSD input.  Each eigenvector is flipped so its
    largest-magnitude entry is positive (magnitude ties resolved by the
    lowest index).
    """
    a = np.asarray(k, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1] or a.shape[0] == 0:
        raise ValueError(f"matrix must be square, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise ValueError("matrix contains non-finite entries")
    scale = float(np.abs(a).max())
    if float(np.abs(a - a.T).max()) > SYM_RTOL * max(1.0, scale):
        raise ValueError("matrix is not symmetric")

    values, vectors = np.linalg.eigh((a + a.T) / 2.0)
    order = np.argsort(-values, kind="stable")
    values = values[order]
    vectors = vectors[:, order]

    lam_max = values[0]
    floor = -PSD_RTOL * max(lam_max, 0.0)
    negative = values < 0.0
    if np.any(values < floor):
        worst = float(values.min())
        raise ValueError(
            f"matrix is not positive semi-definite (eigenvalue {worst:.3e} "
            f"below the -1e-9 * lambda_max floor)"
        )
    values[negative] = 0.0

    cols = np.arange(vectors.shape[1])
    lead = vectors[np.argmax(np.abs(vectors), axis=0), cols]
    vectors[:, lead < 0.0] *= -1.0

    return EigenPairs(values=_readonly(values), vectors=_readonly(vectors))


def select_components(pairs: EigenPairs, mean, q: int) -> PcaModel:
    """Take the top q eigenvectors as the projection basis."""
    m = _as_vector(mean, "mean")
    d = pairs.vectors.shape[0]
    if m.size != d:
        raise ValueError(f"mean length {m.size} does not match dimension {d}")
    if not isinstance(q, (int, np.integer)) or not (1 <= q <= d):
        raise ValueError(f"q must be an integer in [1, {d}], got {q!r}")
    return PcaModel(
        mean=_readonly(m.copy()),
        components=_readonly(pairs.vectors[:, :q].copy()),
        eigenvalues=_readonly(pairs.values.copy()),
        q=int(q),
    )


def principal_angles(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Principal angles (radians, ascending) between two column subspaces."""
    qa, _ = np.linalg.qr(np.asarray(a, dtype=float))
    qb, _ = np.linalg.qr(np.asarray(b, dtype=float))
    sv = np.linalg.svd(qa.T @ qb, compute_uv=False)
    return np.arccos(np.clip(sv, -1.0, 1.0))
