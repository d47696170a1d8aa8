"""Symmetric eigendecomposition and principal component selection.

The solver is LAPACK's symmetric ``eigh`` through numpy; this module adds
input validation and a deterministic output contract on top of it:
descending order, a round-off clamp for tiny negative eigenvalues, and a
sign convention for the eigenvectors.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import _frozen_vector, _readonly, _require_psd_spectra, _symmetrized


@dataclass(eq=False, repr=False)
class EigenPairs:
    """Eigenvalues in descending order with matching eigenvector columns.

    For a stack of matrices both are stacked: values (..., D), vectors
    (..., D, D).
    """

    values: np.ndarray
    vectors: np.ndarray


@dataclass(eq=False, repr=False)
class PcaModel:
    """A fitted PCA basis: center, top-q component columns, full spectrum."""

    mean: np.ndarray
    components: np.ndarray
    eigenvalues: np.ndarray
    q: int


def eig_sym(k) -> EigenPairs:
    """Eigendecompose a symmetric PSD matrix, or a (..., D, D) stack of them,
    with LAPACK ``eigh``.

    Eigenvalues are sorted in descending order; exact ties keep the solver's
    emission order (stable sort), which is deterministic but otherwise
    arbitrary.  Small negative eigenvalues inside (-1e-9 * lambda_max, 0)
    are round-off and reported as zero; anything more negative raises,
    since it signals a non-PSD input.  Each eigenvector is flipped so its
    largest-magnitude entry is positive (magnitude ties resolved by the
    lowest index).

    The input passes the finite and symmetry checks ``cov_matrix`` uses; an
    entry that overflows when symmetrized counts as non-finite, and a matrix
    with an eigenvalue beyond the float range raises.

    Every rule applies to each matrix of a stack on its own, and ``eigh``
    solves a stack one matrix at a time with the same LAPACK routine, so
    each slice of the result has the same bits as a call on that matrix
    alone.  The result is stacked the same way: values (..., D), vectors
    (..., D, D).  The non-PSD error of a stack names the first bad matrix by
    its index in the flattened stack.
    """
    a = np.asarray(k, dtype=float)
    if a.ndim < 2 or a.shape[-1] != a.shape[-2] or a.shape[-1] == 0:
        raise ValueError(f"matrix must be square, got shape {a.shape}")
    d = a.shape[-1]
    flat = a.reshape(-1, d, d)
    n = len(flat)
    sym = _symmetrized(flat, lambda i: "matrix")
    values, vectors = np.linalg.eigh(sym)
    del sym
    if not np.isfinite(values).all():  # eigh scales internally; no warning
        raise ValueError("matrix has an eigenvalue beyond the float range")
    stack = np.arange(n)[:, None]
    order = np.argsort(-values, axis=1, kind="stable")
    values = values[stack, order]
    rows = vectors.transpose(0, 2, 1)[stack, order]  # row j: eigenvector j

    # Sorted descending: the last eigenvalue is the lowest, the first the highest.
    _require_psd_spectra(values[:, -1], values[:, 0],
                         lambda i: f"matrix{f' {i}' if a.ndim > 2 else ''}")
    values[values < 0.0] = 0.0

    lead = rows[stack, np.arange(d), np.argmax(np.abs(rows), axis=2)]
    rows[lead < 0.0] *= -1.0
    vectors = np.ascontiguousarray(rows.transpose(0, 2, 1))
    return EigenPairs(values=_readonly(values.reshape(a.shape[:-1])),
                      vectors=_readonly(vectors.reshape(a.shape)))


def select_components(pairs: EigenPairs, mean, q: int) -> PcaModel:
    """Take the top q eigenvectors as the projection basis."""
    m = _frozen_vector(mean, "mean")
    d = pairs.vectors.shape[0]
    if m.size != d:
        raise ValueError(f"mean length {m.size} does not match dimension {d}")
    if not isinstance(q, (int, np.integer)) or not (1 <= q <= d):
        raise ValueError(f"q must be an integer in [1, {d}], got {q!r}")
    return PcaModel(
        mean=m,
        components=_readonly(pairs.vectors[:, :q].copy()),
        eigenvalues=_readonly(pairs.values.copy()),
        q=int(q),
    )


def principal_angles(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Principal angles (radians, ascending) between two column subspaces.

    By the sine-cosine method (Knyazev & Argentati, 2002), so that angles
    below sqrt(eps) are not lost: the k-th angle with cos^2 >= 1/2 is the
    arcsine of the k-th smallest singular value of Q_b - Q_a (Q_a^T Q_b).
    """
    qa, _ = np.linalg.qr(np.asarray(a, dtype=float))
    qb, _ = np.linalg.qr(np.asarray(b, dtype=float))
    overlap = qa.T @ qb
    cos = np.linalg.svd(overlap, compute_uv=False)  # descending: angles ascending
    sin = np.linalg.svd(qb - qa @ overlap, compute_uv=False)[::-1][:cos.size]
    return np.where(cos * cos >= 0.5, np.arcsin(np.clip(sin, 0.0, 1.0)),
                    np.arccos(np.clip(cos, -1.0, 1.0)))
