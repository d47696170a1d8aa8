import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from uapca.cov import global_cov
from uapca.eigen import eig_sym, select_components
from uapca.items import (
    Distribution,
    EmpiricalCluster,
    Gaussian,
    Interval,
    Normal1D,
    Number,
    Point,
    ProductOf1D,
    Trapezoid,
)
from uapca.model import UncertainDataset
from uapca.project import _ellipse_outlines, project_items
from uapca.svg import projection_svg_pieces

from conftest import random_psd


def _fitted_model(ds, q):
    g = global_cov(ds)
    return select_components(eig_sym(g.at(1.0)), g.mean, q)


def test_full_rank_projection_is_invertible():
    rng = np.random.default_rng(0)
    items = [Gaussian(rng.normal(0, 2, 4), random_psd(rng, 4)) for _ in range(12)]
    ds = UncertainDataset(items=tuple(items))
    model = _fitted_model(ds, 4)
    x = rng.normal(0, 1, 4)
    y = project_items(model, [Point(x)])[0][0]
    back = model.components @ y + model.mean
    assert np.abs(back - x).max() <= 1e-10


def test_projection_commutes_with_sampling():
    rng = np.random.default_rng(1)
    items = [Gaussian(rng.normal(0, 2, 3), random_psd(rng, 3)) for _ in range(8)]
    ds = UncertainDataset(items=tuple(items))
    model = _fitted_model(ds, 2)
    d = items[0]
    (mean,), (c,) = project_items(model, [d])
    n = 100_000
    draws = (d.sample(n, rng) - model.mean) @ model.components
    se_mean = 3.0 * np.sqrt(np.diag(c) / n)
    assert np.all(np.abs(draws.mean(axis=0) - mean) <= se_mean + 1e-9)
    sample_cov = np.cov(draws.T, bias=True)
    for i in range(2):
        for j in range(2):
            se = 3.0 * np.sqrt((c[i, i] * c[j, j] + c[i, j] ** 2) / n)
            assert abs(sample_cov[i, j] - c[i, j]) <= se + 1e-9


def test_point_maps_to_zero_covariance_gaussian():
    rng = np.random.default_rng(2)
    items = [Point(rng.normal(0, 1, 3)) for _ in range(6)]
    ds = UncertainDataset(items=tuple(items))
    model = _fitted_model(ds, 2)
    (mean,), (cov,) = project_items(model, [items[0]])
    assert np.array_equal(cov, np.zeros((2, 2)))
    assert np.array_equal(mean, model.components.T @ (items[0].mean() - model.mean))


def test_dimension_mismatch_raises():
    rng = np.random.default_rng(3)
    items = [Gaussian(rng.normal(0, 1, 3), random_psd(rng, 3)) for _ in range(5)]
    model = _fitted_model(UncertainDataset(items=tuple(items)), 2)
    with pytest.raises(ValueError, match="does not match model dimension"):
        project_items(model, [Point(np.ones(4))])
    with pytest.raises(ValueError, match="does not match model dimension"):
        project_items(model, [Gaussian(np.zeros(4), np.eye(4))])


def _mixed_items(rng, dim=4):
    """Every item kind: points, Gaussians, products of 1-d cells, clusters."""
    items = []
    for i in range(24):
        centre = rng.normal(0, 2, dim)
        kind = i % 4
        if kind == 0:
            items.append(Point(centre))
        elif kind == 1:
            items.append(Gaussian(centre, random_psd(rng, dim)))
        elif kind == 2:
            cells = [Number(centre[0]), Interval(centre[1] - 1.0, centre[1] + 0.5),
                     Trapezoid(*(centre[2] + np.array([-2.0, -0.5, 0.25, 1.0]))),
                     Normal1D(centre[3], 0.7)]
            items.append(ProductOf1D(cells[:dim]))
        else:
            items.append(EmpiricalCluster(centre + rng.normal(0, 1, (9, dim))))
    return tuple(items)


@pytest.mark.parametrize("s", [0.0, 0.5, 1.0, 3.0, math.inf])
def test_batched_projection_matches_per_item_formula(s):
    rng = np.random.default_rng(11)
    ds = UncertainDataset(_mixed_items(rng), weights=rng.uniform(0.5, 2.0, 24))
    g = global_cov(ds)
    model = select_components(eig_sym(g.at(s)), g.mean, 2)
    cov_scale = 1.0 if math.isinf(s) else s * s
    means, covs = project_items(model, ds.items, cov_scale)
    assert means.shape == (24, 2) and covs.shape == (24, 2, 2)

    a, x_bar = model.components, model.mean
    for i, item in enumerate(ds.items):
        if isinstance(item, EmpiricalCluster):
            m, psi = item.points.mean(axis=0), np.cov(item.points.T, bias=True)
        else:
            m, psi = item.mean(), item.cov()
        want_mean = a.T @ (m - x_bar)
        want_cov = cov_scale * (a.T @ psi @ a)
        assert np.abs(means[i] - want_mean).max() <= 1e-12 * max(1.0, np.abs(want_mean).max())
        assert np.abs(covs[i] - want_cov).max() <= 1e-12 * max(1.0, np.abs(want_cov).max())
        if isinstance(item, Point):
            assert np.array_equal(covs[i], np.zeros((2, 2)))
        # The one-item call is the same computation.
        (one_mean,), (one_cov,) = project_items(model, [item], cov_scale)
        assert np.array_equal(one_mean, means[i]) and np.array_equal(one_cov, covs[i])


class _Indefinite(Distribution):
    dim = 2

    def mean(self):
        return np.zeros(2)

    def cov(self):
        return np.diag([1.0, -1.0])


def test_batched_projection_checks_the_stack():
    model = _fitted_model(UncertainDataset((Point([0.0, 0.0]), Point([1.0, 2.0]))), 2)
    with pytest.raises(ValueError, match="projected covariance of item 1 is not positive"):
        project_items(model, [Point([0.0, 1.0]), _Indefinite()])
    with pytest.raises(ValueError, match="non-finite"):
        # A point's zero covariance times an overflowed s^2 is NaN.
        with np.errstate(invalid="ignore"):
            project_items(model, [Point([0.0, 1.0])], cov_scale=math.inf)


def test_projected_covariance_is_judged_against_the_item_scale():
    # Item 0's covariance has -1e-10 beside 1, inside the PSD rule.  The
    # means span the (a, b) plane, and there it keeps the -1e-10 and loses
    # the 1: far outside the rule against its own scale, inside it against
    # the item's.  Its negative eigenvalue is taken as zero, so the
    # renderer's solve takes it; no other row changes.
    items = [Gaussian(np.zeros(3), np.diag([-1e-10, 0.0, 1.0])),
             Gaussian([1.0, 1.0, 0.0], np.diag([0.1, 0.2, 0.1])),
             Point([5.0, 0.0, 0.0]), Point([0.0, 3.0, 0.0]), Point([-5.0, -3.0, 0.0])]
    model = _fitted_model(UncertainDataset(tuple(items)), 2)
    a = model.components
    raw = a.T @ items[0].cov() @ a
    assert np.linalg.eigvalsh(raw)[0] < -1e-9 * np.abs(np.linalg.eigvalsh(raw)).max()
    means, covs = project_items(model, items)
    eig_sym(covs)
    assert np.abs(covs[0] - raw).max() <= 1e-10
    rest_means, rest_covs = project_items(model, items[1:])
    assert np.array_equal(means[1:], rest_means) and np.array_equal(covs[1:], rest_covs)
    # In three dimensions it keeps the 1, so it passes against its own scale
    # and stays as it is.
    full = _fitted_model(UncertainDataset(tuple(items)), 3)
    raw = full.components.T @ items[0].cov() @ full.components
    assert np.array_equal(project_items(full, items)[1][0], (raw + raw.T) / 2.0)

def _outline(g: Gaussian, k_sigma: float, segments: int) -> np.ndarray:
    """One item's ring from the stacked outline kernel: (segments + 1, 2)."""
    _, outlines = _ellipse_outlines(g.mean()[None], g.cov()[None], (k_sigma,), segments, 1)
    return next(outlines())[0, 0]


def test_unit_circle_outline():
    g = Gaussian(np.zeros(2), np.eye(2))
    pts = _outline(g, k_sigma=1.0, segments=64)
    assert pts.shape == (65, 2)
    assert np.array_equal(pts[0], pts[-1])
    radii = np.linalg.norm(pts, axis=1)
    assert np.abs(radii - 1.0).max() <= 1e-12


def test_axis_aligned_semi_axes():
    g = Gaussian(np.array([1.0, -2.0]), np.diag([4.0, 1.0]))
    pts = _outline(g, k_sigma=2.0, segments=256)
    centered = pts - np.array([1.0, -2.0])
    # 2 sigma along sd 2 and sd 1 gives semi-axes 4 and 2.
    assert centered[:, 0].max() == pytest.approx(4.0, abs=1e-9)
    assert centered[:, 1].max() == pytest.approx(2.0, abs=1e-9)


def test_outline_rotates_with_covariance():
    theta = 0.6
    rot = np.array([[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]])
    cov = rot @ np.diag([9.0, 1.0]) @ rot.T
    pts = _outline(Gaussian(np.zeros(2), cov), k_sigma=1.0, segments=720)
    far = pts[np.argmax(np.linalg.norm(pts, axis=1))]
    direction = far / np.linalg.norm(far)
    assert abs(abs(direction @ rot[:, 0]) - 1.0) < 1e-4


def test_degenerate_covariance_collapses_to_segment():
    v = np.array([1.0, 1.0]) / np.sqrt(2.0)
    g = Gaussian(np.zeros(2), np.outer(v, v))
    pts = _outline(g, k_sigma=1.0, segments=128)
    # Rank-one covariance: every outline point stays on the span of v.
    residual = pts - np.outer(pts @ v, v)
    assert np.abs(residual).max() <= 1e-12


def test_stacked_outlines_match_one_item_at_a_time():
    # Each item's rings from one 2-d eigensolve, built as mean + k * (L @ trig),
    # must come out of the stacked pass bit for bit.
    rng = np.random.default_rng(17)
    v = np.array([0.6, 0.8])
    covs = np.stack([random_psd(rng, 2), np.outer(v, v), 3.0 * np.eye(2),
                     *(random_psd(rng, 2) * 10.0 ** rng.uniform(-3, 3) for _ in range(20))])
    means = rng.normal(0.0, 5.0, (len(covs), 2))
    k_sigmas, segments = (1.0, 2.0, 2.5), 64
    outlines = _ellipse_outlines(means, covs, k_sigmas, segments, 10)[1]
    # Runs of 10, 10 and 3 items, the same arrays on every pass.
    chunks = list(outlines())
    assert [len(c) for c in chunks] == [10, 10, 3]
    assert all(np.array_equal(a, b) for a, b in zip(chunks, outlines()))
    out = np.concatenate(chunks)
    assert out.shape == (len(covs), len(k_sigmas), segments + 1, 2)
    theta = np.linspace(0.0, 2.0 * np.pi, segments, endpoint=False)
    trig = np.stack([np.cos(theta), np.sin(theta)])
    for i, (mean, cov) in enumerate(zip(means, covs)):
        pairs = eig_sym(cov)
        ring = ((pairs.vectors * np.sqrt(pairs.values)) @ trig).T
        for j, k_sigma in enumerate(k_sigmas):
            pts = mean + k_sigma * ring
            assert np.array_equal(out[i, j], np.vstack([pts, pts[:1]]))
    assert list(_ellipse_outlines(means[:0], covs[:0], k_sigmas, segments, 10)[1]()) == []


def _vertex_extremes(outlines) -> tuple[np.ndarray, np.ndarray]:
    """The per-axis min and max over every vertex the outlines yield."""
    out = np.concatenate([np.empty((0, 2, 65, 2)), *outlines()])
    return (np.array([out[..., c].min(initial=np.inf) for c in (0, 1)]),
            np.array([out[..., c].max(initial=-np.inf) for c in (0, 1)]))


@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.integers(0, 2**32 - 1), st.integers(0, 700), st.floats(-150.0, 150.0),
       st.floats(-150.0, 150.0))
def test_outline_bounds_are_the_vertex_extremes(seed, n, cov_exponent, mean_exponent):
    # Runs of up to three 256-item chunks; full-rank, rank-1, zero-row and
    # zero covariances at scales 1e-150 to 1e150.  The bounds come from each
    # item's extreme L (cos t, sin t) alone and must equal the extremes of
    # the vertices the outline pass builds (-0.0 == 0.0: the sign of a zero
    # bound cannot reach the pixels).
    rng = np.random.default_rng(seed)
    v = rng.normal(size=2)
    shapes = [random_psd(rng, 2), np.outer(v, v), np.diag([rng.uniform(), 0.0]),
              np.diag([0.0, rng.uniform()]), np.zeros((2, 2))]
    covs = np.stack(shapes)[rng.integers(0, len(shapes), n)]
    covs *= 10.0 ** (cov_exponent + rng.uniform(-2.0, 2.0, (n, 1, 1)))
    means = rng.normal(size=(n, 2)) * 10.0 ** (mean_exponent + rng.uniform(-2.0, 2.0, (n, 1)))
    (lo, hi), outlines = _ellipse_outlines(means, covs, (1.0, 2.0), 64, 256)
    want_lo, want_hi = _vertex_extremes(outlines)
    assert np.array_equal(lo, want_lo) and np.array_equal(hi, want_hi)


def test_outline_bounds_carry_an_overflow():
    # Rings pushed past the float range by their k make the bounds infinite,
    # as the vertices are.
    means = np.array([[0.0, 1.0], [2.0, -3.0], [1e300, -1e300]])
    covs = np.stack([np.eye(2), np.diag([4.0, 1.0]), np.diag([1e300, 1e-300])])
    with np.errstate(over="ignore", invalid="ignore"):
        (lo, hi), outlines = _ellipse_outlines(means, covs, (1.0, 1e160), 64, 2)
        want_lo, want_hi = _vertex_extremes(outlines)
    assert np.array_equal(lo, want_lo) and np.array_equal(hi, want_hi)
    assert lo[0] == -np.inf and hi[0] == np.inf


def test_items_spanning_more_than_the_float_range_are_an_error():
    # 600 items with covariance over ten outline chunks; the last chunk
    # holds the two items at -1e308 and 1e308.
    rng = np.random.default_rng(23)
    means = rng.normal(size=(600, 2))
    means[-2:] = [[-1e308, 0.0], [1e308, 0.0]]
    covs = np.stack([random_psd(rng, 2) for _ in range(600)])
    with pytest.raises(ValueError, match="projected items span more than the float range"):
        "".join(projection_svg_pieces(["a"] * 600, means, covs))


def test_psd_check_runs_on_block_rows_only(monkeypatch):
    import uapca.project

    seen = []
    check = uapca.project._require_psd

    def spy(k, name, floor):
        seen.append((k.shape, name(0) if len(k) else None))
        return check(k, name, floor)

    monkeypatch.setattr(uapca.project, "_require_psd", spy)
    points = UncertainDataset((Point([0.0, 0.0]), Point([1.0, 2.0]), Point([2.0, 1.0])))
    model = _fitted_model(points, 2)
    project_items(model, points)
    project_items(model, [Point([0.0, 1.0]), Point([1.0, 0.0]), Gaussian([0.0, 0.0], np.eye(2))])
    assert seen == [((0, 2, 2), None), ((1, 2, 2), "projected covariance of item 2")]
