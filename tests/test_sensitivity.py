import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from uapca.cov import global_cov
from uapca.eigen import PcaModel, eig_sym, principal_angles
from uapca.items import Gaussian, Point
from uapca.model import UncertainDataset
from uapca.sensitivity import (
    EigenCurves,
    SweepSchedule,
    detect_avoided_crossings,
    factor_traces,
    sweep,
)


def two_cluster_dataset():
    """Two unit-separated clusters whose spread sits on the other axis.

    The swept covariance is diag(1, 4 s^2), so the leading component flips
    from the x axis to the y axis exactly at s = 0.5.
    """
    psi = np.diag([0.0, 4.0])
    return UncertainDataset(
        items=(Gaussian([1.0, 0.0], psi), Gaussian([-1.0, 0.0], psi))
    )


def near_crossing_dataset():
    """Four slightly rotated clusters whose eigencurves repel around s = 0.85."""
    theta = 0.1
    e1 = np.array([np.cos(theta), np.sin(theta), 0.0])
    e2 = np.array([-np.sin(theta), np.cos(theta), 0.0])
    means = [
        np.sqrt(2.0) * e1,
        -np.sqrt(2.0) * e1,
        np.sqrt(0.6) * e2,
        -np.sqrt(0.6) * e2,
    ]
    psi = np.diag([0.05, 1.0, 0.3])
    return UncertainDataset(items=tuple(Gaussian(m, psi) for m in means))


def test_schedule_grid():
    sched = SweepSchedule(steps=64)
    t = sched.t_values()
    s = sched.s_values()
    assert t.shape == s.shape == (64,)
    assert np.array_equal(t, np.linspace(0.0, 1.0, 64))
    assert s[0] == 0.0
    assert math.isinf(s[-1])
    assert np.all(np.diff(s[:-1]) > 0.0)
    assert sched.region_split == 32
    assert s[31] < 1.0 < s[32]


def test_schedule_validation():
    with pytest.raises(ValueError):
        SweepSchedule(steps=1)
    with pytest.raises(ValueError):
        SweepSchedule(steps=2.5)


def test_two_step_schedule_is_both_limits():
    sched = SweepSchedule(steps=2)
    assert sched.s_values()[0] == 0.0
    assert math.isinf(sched.s_values()[1])
    assert sched.region_split == 1
    models, curves = sweep(two_cluster_dataset(), q=2, schedule=sched)
    assert len(models) == 2
    assert curves.values.shape == (2, 2)
    assert curves.avoided_crossing_flags == []


def test_sweep_matches_direct_covariances():
    ds = near_crossing_dataset()
    sched = SweepSchedule(steps=16)
    models, curves = sweep(ds, q=2, schedule=sched)
    for k, s in enumerate(sched.s_values()):
        g = global_cov(ds)
        ref = np.linalg.eigvalsh(g.at(s))[::-1]
        assert np.abs(curves.values[k] - ref).max() <= 1e-10 * max(1.0, ref[0])
        assert np.array_equal(models[k].mean, g.mean)
        pairs = eig_sym(g.at(s))
        assert np.array_equal(curves.values[k], pairs.values)
        assert np.array_equal(models[k].components, pairs.vectors[:, :2])


def test_leading_component_flips_at_the_crossing():
    ds = two_cluster_dataset()
    sched = SweepSchedule(steps=64)
    models, _ = sweep(ds, q=2, schedule=sched)
    s = sched.s_values()
    leading_axis = [int(np.argmax(np.abs(m.components[:, 0]))) for m in models]
    switches = [k for k in range(1, 64) if leading_axis[k] != leading_axis[k - 1]]
    assert len(switches) == 1
    k = switches[0]
    assert s[k - 1] <= 0.5 <= s[k]
    assert leading_axis[0] == 0 and leading_axis[-1] == 1


def test_trace_points_never_exceed_unit_norm():
    for ds in (two_cluster_dataset(), near_crossing_dataset()):
        sched = SweepSchedule(steps=32)
        models, _ = sweep(ds, q=2, schedule=sched)
        for trace in factor_traces(models, sched):
            norms = np.linalg.norm(trace.points, axis=1)
            assert norms.max() <= 1.0 + 1e-10


def test_alignment_only_flips_signs():
    ds = near_crossing_dataset()
    sched = SweepSchedule(steps=48)
    models, _ = sweep(ds, q=2, schedule=sched)
    traces = factor_traces(models, sched)
    for k, model in enumerate(models):
        rebuilt = np.stack([t.points[k] for t in traces])
        m = rebuilt.T @ model.components
        assert np.abs(np.abs(m) - np.eye(2)).max() <= 1e-10


def _sequentially_aligned(models):
    """Column signs chosen one step and one column at a time."""
    aligned = [models[0].components]
    for m in models[1:]:
        a = m.components.copy()
        for j in range(a.shape[1]):
            if float(aligned[-1][:, j] @ a[:, j]) < 0.0:
                a[:, j] = -a[:, j]
        aligned.append(a)
    return np.stack(aligned)


def test_factor_traces_match_the_sequential_alignment():
    # The two-cluster sweep swaps its components at s = 0.5, a step-to-step
    # dot product of exactly zero, after which the raw column is kept.
    rng = np.random.default_rng(5)
    sched = SweepSchedule(steps=40)
    for ds in (two_cluster_dataset(), near_crossing_dataset()):
        models, _ = sweep(ds, q=2, schedule=sched)
        # Random raw signs per step and column, as an eigensolver may emit them.
        models = [PcaModel(m.mean, m.components * rng.choice([-1.0, 1.0], 2), m.eigenvalues, 2)
                  for m in models]
        got = np.stack([t.points for t in factor_traces(models, sched)], axis=1)
        assert np.array_equal(got, _sequentially_aligned(models))
        assert np.array_equal(np.signbit(got), np.signbit(_sequentially_aligned(models)))


def test_trace_metadata():
    ds = two_cluster_dataset()
    sched = SweepSchedule(steps=16)
    models, _ = sweep(ds, q=2, schedule=sched)
    traces = factor_traces(models, sched)
    assert [t.axis_index for t in traces] == [0, 1]
    for t in traces:
        assert t.region_split == sched.region_split
        plus, minus = t.points, -t.points
        assert np.array_equal(minus, -plus)


def test_factor_traces_validation():
    ds = two_cluster_dataset()
    sched = SweepSchedule(steps=8)
    models, _ = sweep(ds, q=2, schedule=sched)
    with pytest.raises(ValueError, match="no models"):
        factor_traces([], sched)
    with pytest.raises(ValueError, match="8-step"):
        factor_traces(models[:-1], sched)


def test_axis_aligned_points_trace_stays_put():
    pts = [np.array(p) for p in ([2.0, 0.0], [-2.0, 0.0], [0.0, 1.0], [0.0, -1.0])]
    ds = UncertainDataset(items=tuple(Point(p) for p in pts))
    sched = SweepSchedule(steps=16)
    models, _ = sweep(ds, q=2, schedule=sched)
    traces = factor_traces(models, sched)
    for i, trace in enumerate(traces):
        assert np.abs(trace.points - trace.points[0]).max() <= 1e-12
        assert np.array_equal(trace.points[0], np.eye(2)[i])


def test_near_crossing_is_flagged():
    ds = near_crossing_dataset()
    sched = SweepSchedule(steps=64)
    _, curves = sweep(ds, q=2, schedule=sched)
    flags = curves.avoided_crossing_flags
    assert set(flags) == {(29, 0), (42, 1)}
    # An independent fine sweep puts the top-pair gap minimum at s = 0.8498;
    # the flagged step must bracket it.
    s = sched.s_values()
    assert s[28] <= 0.8498 <= s[30]


@pytest.mark.parametrize("c", [1e-3, 0.37, 2.0, 7.5, 1e4])
def test_whole_dataset_scale_keeps_crossing_flags(c):
    # Scaling every axis by c scales each K(s) by c^2, so every gap scales
    # alike and the flags, which compare gaps with each other, stay put.
    ds = near_crossing_dataset()
    sched = SweepSchedule(steps=64)
    _, curves = sweep(ds, q=2, schedule=sched)
    _, scaled = sweep(ds.rescale(np.full(ds.dim, c), np.zeros(ds.dim)), q=2, schedule=sched)
    assert scaled.avoided_crossing_flags == curves.avoided_crossing_flags
    assert np.abs(scaled.values / c**2 - curves.values).max() <= 1e-12 * curves.values.max()


def test_fine_grid_localizes_the_gap_minimum():
    ds = near_crossing_dataset()
    g = global_cov(ds)
    s_fine = np.linspace(0.5, 1.2, 2001)
    gaps = np.empty(s_fine.size)
    for i, s in enumerate(s_fine):
        vals = np.linalg.eigvalsh(g.term_means + s * s * g.term_uncertainty)[::-1]
        gaps[i] = vals[0] - vals[1]
    k = int(np.argmin(gaps))
    assert gaps[k] > 0.0
    assert abs(s_fine[k] - 0.8498) < 1e-3


def test_limit_step_agrees_with_huge_s():
    ds = near_crossing_dataset()
    models, _ = sweep(ds, q=2, schedule=SweepSchedule(steps=16))
    evals, evecs = np.linalg.eigh(global_cov(ds).at(1e6))
    huge = evecs[:, ::-1][:, :2]
    assert principal_angles(models[-1].components, huge).max() <= 1e-3


def test_detection_needs_three_steps():
    curves = EigenCurves(s_values=np.array([0.0, np.inf]), values=np.ones((2, 3)))
    with pytest.raises(ValueError, match="at least 3"):
        detect_avoided_crossings(curves)


def test_monotone_gaps_are_not_flagged():
    s = np.array([0.0, 0.5, 1.0, 2.0, np.inf])
    lam = np.stack([4.0 + np.arange(5.0), np.arange(5.0)], axis=1)
    curves = EigenCurves(s_values=s, values=lam)
    assert detect_avoided_crossings(curves) == []


def test_exact_degeneracy_is_not_flagged():
    # A gap that touches zero is a true crossing, not an avoided one.
    lam = np.array([[2.0, 1.0], [1.5, 1.5], [2.0, 1.0], [3.0, 1.0]])
    curves = EigenCurves(s_values=np.array([0.0, 0.5, 1.0, np.inf]), values=lam)
    assert detect_avoided_crossings(curves) == []


def _loop_avoided_crossings(values: np.ndarray) -> list[tuple[int, int]]:
    """The detector as a per-pair, per-step loop, with its skip test as written."""
    flags = []
    for i in range(values.shape[1] - 1):
        gap = values[:, i] - values[:, i + 1]
        cutoff = 0.25 * float(np.median(gap))
        for k in range(1, len(gap) - 1):
            if gap[k] <= 0.0 or gap[k] >= cutoff:
                continue
            if gap[k] < gap[k - 1] and gap[k] <= gap[k + 1]:
                flags.append((k, i))
    return flags


# Few distinct values, so gaps tie, touch zero and go negative; NaN makes
# both NaN gaps and, through the median, NaN cut-offs.
_CURVE_VALUES = st.sampled_from([0.0, 0.5, 1.0, 1.0, 2.0, 3.0, 8.0, -1.0, math.nan])


@settings(max_examples=300, deadline=None)
@given(st.integers(3, 12).flatmap(lambda steps: st.integers(1, 5).flatmap(
    lambda d: st.lists(st.lists(_CURVE_VALUES, min_size=d, max_size=d),
                       min_size=steps, max_size=steps))))
def test_avoided_crossings_match_the_loop(rows):
    values = np.array(rows, dtype=float)
    curves = EigenCurves(s_values=np.linspace(0.0, 1.0, len(rows)), values=values)
    assert detect_avoided_crossings(curves) == _loop_avoided_crossings(values)


def test_nan_cutoff_skips_nothing():
    # The median gap of pair 0 is NaN, so only the positive local-minimum test applies.
    lam = np.array([[3.0, 0.0], [1.0, 0.0], [3.0, 0.0], [math.nan, 0.0], [math.nan, 0.0]])
    curves = EigenCurves(s_values=np.linspace(0.0, 1.0, 5), values=lam)
    assert detect_avoided_crossings(curves) == [(1, 0)]


def test_sweep_solves_the_whole_stack_in_one_call(monkeypatch):
    import uapca.sensitivity

    calls = []

    def counting(k):
        calls.append(np.shape(k))
        return eig_sym(k)

    monkeypatch.setattr(uapca.sensitivity, "eig_sym", counting)
    sweep(near_crossing_dataset(), q=2, schedule=SweepSchedule(steps=16))
    assert calls == [(16, 3, 3)]
