"""Sensitivity of the PCA basis to the uncertainty scaling factor s.

A sweep samples s on a hyperbolic grid s = t / (1 - t) with t uniform in
[0, 1], so the whole range [0, inf) fits a finite schedule; t = 1 stands
for the limit where only the expected item covariance matters.  Factor
traces record where each original axis lands in component space at every
step, giving a compact picture of how the projection reacts to s.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .cov import global_cov
from .eigen import EigenPairs, PcaModel, select_components
from .model import UncertainDataset, _median, _readonly


@dataclass(frozen=True)
class SweepSchedule:
    """Uniform t-grid over [0, 1] mapped through s = t / (1 - t)."""

    steps: int = 64

    def __post_init__(self):
        if not isinstance(self.steps, (int, np.integer)) or self.steps < 2:
            raise ValueError(f"steps must be an integer >= 2, got {self.steps!r}")
        object.__setattr__(self, "steps", int(self.steps))

    def t_values(self) -> np.ndarray:
        return np.linspace(0.0, 1.0, self.steps)

    def s_values(self) -> np.ndarray:
        """Strictly increasing s per step; the final entry is the inf limit."""
        t = self.t_values()
        s = np.empty(self.steps)
        s[:-1] = t[:-1] / (1.0 - t[:-1])
        s[-1] = math.inf
        return s

    @property
    def region_split(self) -> int:
        """Index of the first step with s > 1 (start of the extrapolation side)."""
        s = self.s_values()
        return int(np.argmax(s > 1.0))


@dataclass(eq=False, repr=False)
class EigenCurves:
    """Per-step sorted eigenvalues of the swept covariance.

    values has one row per step (descending eigenvalues).  Flags mark
    suspected avoided crossings as (step, pair) with pair i meaning the gap
    between eigenvalue curves i and i+1.
    """

    s_values: np.ndarray
    values: np.ndarray
    avoided_crossing_flags: list[tuple[int, int]] = field(default_factory=list)


@dataclass(eq=False, repr=False)
class FactorTrace:
    """Path of one original axis through component space over the sweep.

    points holds the aligned orientation, one q-vector per step; the
    mirrored orientation is its negation, and both belong to the trace since
    component signs are arbitrary.  region_split is the first step index
    with s > 1.
    """

    axis_index: int
    points: np.ndarray
    region_split: int


def sweep(
    ds: UncertainDataset,
    q: int,
    schedule: SweepSchedule = SweepSchedule(),
) -> tuple[list[PcaModel], EigenCurves]:
    """Fit one PCA model per schedule step.

    The dataset is accumulated once; per step the covariance is formed from
    the stored terms by :meth:`GlobalCov.at`, K(s) = term_means +
    s^2 * term_uncertainty, with the final step using term_uncertainty
    alone.  The (steps, D, D) stack is solved in one ``eig_sym`` call by
    :meth:`GlobalCov.eig`, and each slice has the bits of a call on that
    matrix alone.  Eigenvalue curves across all steps are returned
    alongside the models, with avoided-crossing flags filled in for
    schedules of at least three steps.
    """
    g = global_cov(ds)
    s_values = schedule.s_values()
    pairs = g.eig(s_values)
    models = [select_components(EigenPairs(values, vectors), g.mean, q)
              for values, vectors in zip(pairs.values, pairs.vectors)]
    curves = EigenCurves(s_values=_readonly(s_values), values=pairs.values)
    if schedule.steps >= 3:
        curves.avoided_crossing_flags = detect_avoided_crossings(curves)
    return models, curves


def factor_traces(models: list[PcaModel], schedule: SweepSchedule) -> list[FactorTrace]:
    """Trace each original axis through the swept component bases.

    The trace point for axis i at step k is A_k^T e_i, i.e. row i of the
    component matrix.  Because eigenvector signs are arbitrary per step,
    whole component columns are flipped: at each step a column is negated
    when its dot product with the previous step's aligned column is
    negative.  Negation is exact, so that dot product is the raw
    step-to-step one times the earlier flips, and all flips come from one
    cumulative product of signs; a zero dot product keeps the raw column.
    Flips never change any spanned subspace.
    """
    if not models:
        raise ValueError("no models to trace")
    if len(models) != schedule.steps:
        raise ValueError(
            f"got {len(models)} models for a {schedule.steps}-step schedule"
        )
    raw = np.stack([m.components for m in models])  # (steps, d, q)
    dots = (raw[:-1] * raw[1:]).sum(axis=1)
    signs = np.ones((len(raw), raw.shape[2]))
    signs[1:][dots < 0.0] = -1.0
    signs = np.cumprod(signs, axis=0)
    # After a zero dot product the column is kept as is, so the product
    # restarts there: multiplying by its value at the restart, which is its
    # own inverse, divides that value out.
    zero = np.zeros(signs.shape, dtype=bool)
    zero[1:] = dots == 0.0
    restart = np.maximum.accumulate(np.where(zero, np.arange(len(raw))[:, None], 0), axis=0)
    signs *= np.take_along_axis(signs, restart, axis=0)
    aligned = raw * signs[:, None, :]
    split = schedule.region_split
    return [
        FactorTrace(axis_index=i, points=_readonly(aligned[:, i, :].copy()), region_split=split)
        for i in range(raw.shape[1])
    ]


def detect_avoided_crossings(curves: EigenCurves) -> list[tuple[int, int]]:
    """Flag interior gap minima that look like avoided crossings.

    For each adjacent eigenvalue pair the gap curve g_k = lambda_i(k) -
    lambda_{i+1}(k) is scanned for interior local minima that stay positive
    but dip below a quarter of the pair's median gap.  Exact crossings
    (zero gap) are real degeneracies, not avoided crossings, and are never
    flagged.
    """
    vals = np.asarray(curves.values, dtype=float)
    if vals.ndim != 2 or vals.shape[0] < 3:
        raise ValueError("avoided-crossing detection needs at least 3 sweep steps")
    gaps = vals[:, :-1] - vals[:, 1:]  # (steps, pairs)
    cutoff = 0.25 * np.array([_median(gap) for gap in gaps.T])
    # The negated skip test "gap <= 0 or gap >= cutoff": a NaN cut-off skips nothing.
    g = gaps[1:-1]
    hit = ~(g <= 0.0) & ~(g >= cutoff) & (g < gaps[:-2]) & (g <= gaps[2:])
    pair, step = np.nonzero(hit.T)  # pair-major, as the flags are listed
    return list(zip((step + 1).tolist(), pair.tolist()))
