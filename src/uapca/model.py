"""Distribution model for uncertainty-aware PCA.

Every input item is a probability distribution over R^D, reduced to its
first two moments: ``mean()`` returns E[x] and ``cov()`` the covariance
matrix Cov(x, x).  The second moment follows as E[x x^T] = mean mean^T + cov.
All covariance bookkeeping uses population (1/N) normalization.

This module holds the array helpers, the scalar cell kinds' rules and moments
(``_cell_moments``) and the ``UncertainDataset`` table.  The item classes
live in ``items``, which loads only when items are made or read.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:
    from .items import Distribution

# Relative floor for eigenvalues of a valid covariance matrix.
PSD_RTOL = 1e-9
# Relative symmetry slack accepted before symmetrization.
SYM_RTOL = 1e-12

def _readonly(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


def _median(x) -> float:
    """``float(np.median(x))`` of a 1-d array, bit for bit, without the
    ``numpy.ma`` import that np.median makes on first use: NaN if an entry
    is NaN, else the mean of the middle sorted entries as np.mean takes it,
    a sum from 0.0 over their count: 0.0 + m, or (0.0 + a + b) / 2.0."""
    s = np.sort(x).tolist()
    mid = len(s) // 2
    if math.isnan(s[-1]):
        return math.nan
    return 0.0 + s[mid] if len(s) % 2 else (0.0 + s[mid - 1] + s[mid]) / 2.0


def _real_array(x, name: str) -> np.ndarray:
    """x as a float array; a TypeError unless its dtype is bool, int or float,
    so that text such as "1" is refused as the cells refuse it."""
    a = np.asarray(x)
    if a.dtype.kind not in "biuf":
        raise TypeError(f"{name} must hold real numbers, got dtype {a.dtype}")
    return a.astype(float, copy=False)


def _as_vector(x, name: str = "vector") -> np.ndarray:
    v = _real_array(x, name)
    if v.ndim != 1 or v.size == 0:
        raise ValueError(f"{name} must be a non-empty 1-d array, got shape {v.shape}")
    if not np.all(np.isfinite(v)):
        raise ValueError(f"{name} contains non-finite entries")
    return v


def _frozen_vector(x, name: str) -> np.ndarray:
    """``_as_vector(x)``, read-only, in memory of its own: the caller's array,
    or the array it views, keeps its write flag and cannot change the result."""
    v = _as_vector(x, name)
    return _readonly(v.copy() if v is x or not v.flags.owndata else v)


def cov_matrix(entries, name: str = "covariance") -> np.ndarray:
    """Validate a covariance matrix and return its symmetrized copy.

    The input must be square, finite, symmetric within ``SYM_RTOL`` relative
    tolerance, and positive semi-definite up to numerical noise (eigenvalues
    no lower than ``-PSD_RTOL`` times the largest eigenvalue magnitude).
    The returned array is read-only.
    """
    k = _real_array(entries, name)
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


def _require_psd(k: np.ndarray, name, floor=0.0) -> tuple[np.ndarray, np.ndarray]:
    """``_require_psd_spectra`` on each matrix of the symmetric (..., D, D)
    stack k, from one eigvalsh; ``name`` takes the flat index.  Returns each
    matrix's lowest and highest eigenvalue."""
    evals = np.linalg.eigvalsh(k).reshape(-1, k.shape[-1])
    _require_psd_spectra(evals[:, 0], evals[:, -1], name, floor)
    return evals[:, 0], evals[:, -1]


def _require_psd_spectra(lo: np.ndarray, hi: np.ndarray, name, floor=0.0) -> None:
    """The PSD rule, given each matrix's lowest and highest eigenvalue: raise
    unless lo >= -PSD_RTOL * max(|lo|, |hi|), the largest eigenvalue
    magnitude, or times floor where that is larger.  The error names the
    first bad matrix as ``name(index)``."""
    lam_scale = np.maximum(np.maximum(np.abs(lo), np.abs(hi)), floor)
    bad = np.flatnonzero(lo < -PSD_RTOL * lam_scale)
    if bad.size:
        i = int(bad[0])
        raise ValueError(
            f"{name(i)} is not positive semi-definite "
            f"(min eigenvalue {lo[i]:.3e}, scale {lam_scale[i]:.3e})"
        )


def _row_mean(rows: np.ndarray) -> np.ndarray:
    """The mean of (..., n, D) rows over n, the bits of ``rows.mean(axis=-2)``;
    an overflow gives non-finite entries and no numpy warning.

    For a C-contiguous array with D >= 2 both add each column in row order,
    and einsum does it in one strided pass per column rather than one
    inner-loop call per row.  numpy sums a single column (D = 1), or any
    array laid out by columns, pairwise, so those keep ``mean``.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        if rows.shape[-1] < 2 or not rows.flags.c_contiguous:
            return rows.mean(axis=-2)
        return np.einsum("...ij->...j", rows) / rows.shape[-2]


def _population_moments(
    rows: np.ndarray, overwrite: bool = False
) -> tuple[np.ndarray, np.ndarray]:
    """Mean and symmetrized population (1/n) covariance of (..., n, D) rows; no validation.

    With ``overwrite`` the rows are centred in place instead of in a copy;
    the result is the same bits either way.  An overflow leaves non-finite
    entries, with no numpy warning, for the caller's checks to reject.
    """
    mean = _row_mean(rows)
    with np.errstate(over="ignore", invalid="ignore"):
        centered = np.subtract(rows, mean[..., None, :], out=rows if overwrite else None)
        k = centered.swapaxes(-1, -2) @ centered / rows.shape[-2]
        return mean, (k + k.swapaxes(-1, -2)) / 2.0


def _psd_factor(k: np.ndarray) -> np.ndarray:
    """F with F F^T = k, from k's eigen decomposition; eigenvalues below 0 count as 0."""
    evals, evecs = np.linalg.eigh(k)
    return evecs * np.sqrt(np.clip(evals, 0.0, None))


# Each scalar cell kind's JSON key, parameter count and rule texts: parameters
# finite, and in order (a format string; a number has none).  A kind's code is
# its position here; the reader's form error lists the keys in this order.
_CELL_KINDS = (
    ("number", 1, "number value must be finite", None),
    ("interval", 2, "interval bounds must be finite",
     "interval bounds must satisfy lo <= hi, got [{}, {}]"),
    ("trapezoid", 4, "trapezoid parameters must be finite",
     "trapezoid parameters must satisfy a <= b <= c <= d, got ({}, {}, {}, {})"),
    ("normal", 2, "normal parameters must be finite", "normal sd must be non-negative, got {1}"),
)


def _pow(x: np.ndarray, k: int) -> np.ndarray:
    """x ** k by CPython's float power (numpy's can differ in the last bit);
    inf where that overflows, which rejects only the cells it enters."""
    powers = []
    for v in x.tolist():
        try:
            powers.append(v ** k)
        except OverflowError:
            powers.append(math.inf)
    return np.array(powers, dtype=float)


def _cell_moments(code: int, params) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Means, variances and rule masks of the cells of one kind, given their
    parameters one cell after another; each ``**`` goes through ``_pow``.

    The masks are a (3, n) array, a row per rule: a parameter is not finite;
    the kind's order rule fails; the mean or variance is not finite.  A
    trapezoid's moments are integrated on its support shifted so that a = 0
    (b, c, d below are offsets from a), which keeps them free of cancellation
    however far the support sits from the origin:

        E[X] - a     = (d^2 + c d + c^2 - b^2) / (3 (d + c - b))
        E[(X - a)^2] = (d^3 + d^2 c + d c^2 + c^3 - b^3) / (6 (d + c - b))
    """
    kind, width = _CELL_KINDS[code][:2]
    p = np.array(params, dtype=float).reshape(-1, width).T
    rules = np.zeros((3, p.shape[1]), dtype=bool)
    with np.errstate(all="ignore"):
        rules[0] = ~np.isfinite(p).all(axis=0)
        if kind == "number":
            mean, var = p[0], np.zeros(p.shape[1])
        elif kind == "interval":
            lo, hi = p
            rules[1] = lo > hi
            mean, var = (lo + hi) / 2.0, _pow(hi - lo, 2) / 12.0
        elif kind == "normal":
            mean, sd = p
            rules[1] = sd < 0.0
            var = _pow(sd, 2)
        else:
            a, b, c, d = p
            rules[1] = (a > b) | (b > c) | (c > d)
            span = d + c - b - a
            b, c, d = b - a, c - a, d - a
            first = (d * d + c * d + c * c - b * b) / (3.0 * span)
            second = (_pow(d, 3) + _pow(d, 2) * c + d * _pow(c, 2) + _pow(c, 3)
                      - _pow(b, 3)) / (6.0 * span)
            first[span == 0.0] = second[span == 0.0] = 0.0
            mean, var = a + first, second - first * first
            var[var < 0.0] = 0.0  # max(v, 0.0): NaN and -0.0 stay
        rules[2] = ~(np.isfinite(mean) & np.isfinite(var))
    return mean, var, rules


def _cell_rule_error(code: int, params, rules) -> str | None:
    """The text of the first rule, finite then order, that a cell's mask column breaks, or None."""
    texts = _CELL_KINDS[code][2:]
    return next((text.format(*params) for text, broken in zip(texts, rules) if broken), None)


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
        from .items import Distribution, Point, ProductOf1D

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
        given; ``cells``, if given, is called with a diagonal-block row's
        position j when ``items`` is first read and returns that row's cells."""
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
        full_index = np.asarray(full_index, dtype=np.intp)
        diag_index = np.asarray(diag_index, dtype=np.intp)
        # (G, d * d), not (G, -1): an empty block cannot infer the -1.
        full_ok = np.isfinite(full_covs.reshape(len(full_covs), d * d)).all(axis=1)
        diag_ok = np.isfinite(diag_vars).all(axis=1)
        for what, bad in (
            ("mean", np.flatnonzero(~np.isfinite(means).all(axis=1))),
            ("covariance", np.sort(np.concatenate([full_index[~full_ok], diag_index[~diag_ok]]))),
        ):
            if bad.size:
                raise ValueError(f"item {bad[0]}: {what} contains non-finite entries")
        self._means = _readonly(means.view())  # not the caller's array's flag
        self.full_index = _readonly(full_index)
        self.full_covs = _readonly(full_covs)
        self.diag_index = _readonly(diag_index)
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
            from .items import Gaussian, Point, ProductOf1D

            m = self._means
            rows = {int(i): Gaussian(m[i], k) for i, k in zip(self.full_index, self.full_covs)}
            for j, (i, v) in enumerate(zip(self.diag_index, self.diag_vars)):
                rows[int(i)] = (Gaussian(m[i], np.diag(v)) if self._cells is None
                                else ProductOf1D(self._cells(j)))
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
