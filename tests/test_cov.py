import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from uapca.cov import CovOptions, global_cov, global_cov_from_points
from uapca.model import (
    EmpiricalCluster,
    Gaussian,
    Interval,
    Normal1D,
    Number,
    Point,
    ProductOf1D,
    Trapezoid,
    UncertainDataset,
)

from conftest import random_psd


def random_gaussian_dataset(rng, n_items, dim, weighted=False):
    items = tuple(
        Gaussian(rng.normal(0, 2, dim), random_psd(rng, dim)) for _ in range(n_items)
    )
    weights = rng.uniform(0.5, 3.0, n_items) if weighted else None
    return UncertainDataset(items, weights=weights)


def test_scale_zero_reduces_to_point_pca():
    rng = np.random.default_rng(0)
    ds = random_gaussian_dataset(rng, 12, 4)
    g0 = global_cov(ds, CovOptions(scale_s=0.0))
    gp = global_cov_from_points(ds.means())
    assert np.linalg.norm(g0.matrix - gp.matrix) <= 1e-12
    assert np.abs(g0.mean - gp.mean).max() <= 1e-12


@pytest.mark.parametrize("s", [0.0, 0.5, 1.0, 2.0, 10.0])
def test_scaling_law(s):
    rng = np.random.default_rng(3)
    ds = random_gaussian_dataset(rng, 8, 5, weighted=True)
    g = global_cov(ds, CovOptions(scale_s=s))
    rebuilt = g.term_means + s * s * g.term_uncertainty
    scale = max(1.0, np.abs(g.matrix).max())
    assert np.abs(g.matrix - rebuilt).max() <= 1e-12 * scale


def test_infinity_limit_is_uncertainty_term():
    rng = np.random.default_rng(4)
    ds = random_gaussian_dataset(rng, 6, 3)
    g = global_cov(ds, CovOptions(scale_s=math.inf))
    assert np.array_equal(g.matrix, g.term_uncertainty)
    g1 = global_cov(ds, CovOptions(scale_s=1.0))
    assert np.allclose(g.term_means, g1.term_means, atol=1e-15)


def test_matrix_matches_paper_decomposition():
    # K = E_w[m m^T] + s^2 E_w[Psi] - mean mean^T, assembled independently.
    rng = np.random.default_rng(5)
    ds = random_gaussian_dataset(rng, 9, 4, weighted=True)
    s = 1.3
    w = ds.weights / ds.weights.sum()
    means = ds.means()
    e_mm = sum(wi * np.outer(m, m) for wi, m in zip(w, means))
    e_psi = sum(wi * item.cov() for wi, item in zip(w, ds.items))
    x_bar = (w[:, None] * means).sum(axis=0)
    expected = e_mm + s * s * e_psi - np.outer(x_bar, x_bar)
    g = global_cov(ds, CovOptions(scale_s=s))
    assert np.abs(g.matrix - expected).max() <= 1e-12
    assert np.abs(g.mean - x_bar).max() <= 1e-14


def test_weight_duplication_equivalence():
    # One item with weight 2 acts like the same item listed twice.
    rng = np.random.default_rng(6)
    a = Gaussian(rng.normal(0, 1, 3), random_psd(rng, 3))
    b = Gaussian(rng.normal(0, 1, 3), random_psd(rng, 3))
    doubled = UncertainDataset((a, b), weights=np.array([2.0, 1.0]))
    listed = UncertainDataset((a, a, b))
    gd = global_cov(doubled)
    gl = global_cov(listed)
    assert np.abs(gd.matrix - gl.matrix).max() <= 1e-12
    assert np.abs(gd.mean - gl.mean).max() <= 1e-14


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n_items=st.integers(20, 200),
    dim=st.integers(2, 6),
    data=st.data(),
)
def test_translation_leaves_matrix_unchanged(seed, n_items, dim, data):
    # Shifting every item by a constant moves only the mean; K is accumulated
    # about the mean, so offsets up to 1e8 change it by input rounding alone.
    offset = data.draw(st.lists(st.floats(-1e8, 1e8), min_size=dim, max_size=dim))
    rng = np.random.default_rng(seed)
    items = tuple(
        Gaussian(rng.normal(0, 1, dim), random_psd(rng, dim)) for _ in range(n_items)
    )
    ds = UncertainDataset(items, weights=rng.uniform(0.5, 3.0, n_items))
    shifted = ds.rescale(np.ones(dim), np.array(offset))
    k = global_cov(ds).matrix
    k_shifted = global_cov(shifted).matrix
    assert np.abs(k_shifted - k).max() <= 1e-7 * np.abs(k).max()


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n_items=st.integers(5, 60),
    dim=st.integers(2, 6),
    data=st.data(),
)
def test_diagonal_rescale_maps_matrix_to_s_k_s(seed, n_items, dim, data):
    # x -> S x with S = diag(scale) > 0 maps every item mean to S m and every
    # item covariance to S Psi S, so K(s) goes to S K(s) S for every s.
    scale = np.array(
        data.draw(st.lists(st.floats(1e-3, 1e3), min_size=dim, max_size=dim))
    )
    rng = np.random.default_rng(seed)
    kinds = (
        lambda: Gaussian(rng.normal(0, 1, dim), random_psd(rng, dim)),
        lambda: Point(rng.normal(0, 1, dim)),
        lambda: ProductOf1D(
            Trapezoid(*np.sort(rng.normal(0, 1, 4))) if j % 2 else Interval(-abs(x), abs(x))
            for j, x in enumerate(rng.normal(0, 1, dim))
        ),
    )
    items = tuple(kinds[i % 3]() for i in range(n_items))
    ds = UncertainDataset(items, weights=rng.uniform(0.5, 3.0, n_items))
    scaled = ds.rescale(scale, np.zeros(dim))
    for s in (0.0, 1.0, math.inf):
        k = global_cov(ds, CovOptions(scale_s=s)).matrix
        k_scaled = global_cov(scaled, CovOptions(scale_s=s)).matrix
        # Compare in the original units: S^-1 K' S^-1 against K.
        back = k_scaled / np.outer(scale, scale)
        assert np.abs(back - k).max() <= 1e-12 * np.abs(k).max()


def test_dataset_mean_weighted():
    items = (Point([0.0, 0.0]), Point([4.0, 8.0]))
    ds = UncertainDataset(items, weights=np.array([3.0, 1.0]))
    assert np.allclose(global_cov(ds).mean, [1.0, 2.0], atol=1e-15)


def test_mixed_items_uncertainty_term():
    # Product cells contribute their variances on the diagonal.
    items = (
        ProductOf1D([Interval(0.0, 2.0), Trapezoid(0.0, 1.0, 3.0, 4.0)]),
        Point([1.0, 1.0]),
    )
    ds = UncertainDataset(items)
    g = global_cov(ds)
    expected = (items[0].cov() + np.zeros((2, 2))) / 2.0
    assert np.allclose(g.term_uncertainty, expected, atol=1e-15)


def test_global_cov_matrix_is_symmetric_and_psd():
    rng = np.random.default_rng(8)
    for _ in range(20):
        ds = random_gaussian_dataset(rng, int(rng.integers(2, 10)), int(rng.integers(2, 7)),
                                     weighted=True)
        g = global_cov(ds, CovOptions(scale_s=float(rng.uniform(0, 3))))
        assert np.array_equal(g.matrix, g.matrix.T)
        evals = np.linalg.eigvalsh(g.matrix)
        assert evals.min() >= -1e-9 * max(evals.max(), 0.0)


def test_two_gaussian_crossing_matrix():
    psi = np.diag([0.0, 4.0])
    ds = UncertainDataset((Gaussian([-1.0, 0.0], psi), Gaussian([1.0, 0.0], psi)))
    for s in (0.0, 0.3, 0.5, 1.0):
        g = global_cov(ds, CovOptions(scale_s=s))
        assert np.allclose(g.matrix, np.diag([1.0, 4.0 * s * s]), atol=1e-15)


def test_from_points_iris_textbook_covariance(iris_path):
    from uapca.io import load_points

    pts = load_points(iris_path).points
    # Brute-force population covariance as the oracle.
    n, d = pts.shape
    mean = pts.sum(axis=0) / n
    oracle = np.zeros((d, d))
    for i in range(d):
        for j in range(d):
            oracle[i, j] = float(((pts[:, i] - mean[i]) * (pts[:, j] - mean[j])).sum() / n)
    g = global_cov_from_points(pts)
    assert np.abs(g.matrix - oracle).max() <= 1e-12
    assert np.array_equal(g.term_uncertainty, np.zeros((d, d)))


def test_cov_options_validation():
    with pytest.raises(ValueError):
        CovOptions(scale_s=-1.0)
    with pytest.raises(ValueError):
        CovOptions(scale_s=float("nan"))
    assert CovOptions(scale_s=math.inf).scale_s == math.inf


def test_from_points_validation():
    with pytest.raises(ValueError):
        global_cov_from_points(np.empty((0, 3)))
    with pytest.raises(ValueError):
        global_cov_from_points(np.array([[1.0, np.nan]]))


@pytest.mark.parametrize("s", [0.0, 1.0, math.inf])
def test_skipping_points_keeps_the_matrix_bits(s):
    # Points interleaved with the other three kinds; the reference adds every
    # item's covariance, the points' exact zeros included.
    rng = np.random.default_rng(21)
    dim, items = 3, []
    for i in range(24):
        kind = i % 4
        if kind == 0:
            items.append(Point(rng.normal(0, 2, dim)))
        elif kind == 1:
            items.append(Gaussian(rng.normal(0, 2, dim), random_psd(rng, dim)))
        elif kind == 2:
            items.append(ProductOf1D([Number(1.5), Interval(-1.0, 2.0),
                                      Normal1D(float(rng.normal()), 0.7)]))
        else:
            items.append(EmpiricalCluster(rng.normal(0, 1, (5, dim))))
    w = rng.uniform(0.5, 3.0, len(items))
    ds = UncertainDataset(tuple(items), weights=w)

    means = ds.means()
    x_bar = w @ means / w.sum()
    c = means - x_bar
    t_means = (c * w[:, None]).T @ c / w.sum()
    t_unc = np.zeros((dim, dim))
    for wi, item in zip(w, items):
        t_unc += wi * item.cov()
    t_unc /= w.sum()
    t_means, t_unc = (t_means + t_means.T) / 2.0, (t_unc + t_unc.T) / 2.0
    expected = t_unc if math.isinf(s) else t_means + (s * s) * t_unc

    assert np.array_equal(global_cov(ds, CovOptions(scale_s=s)).matrix, expected)


def _item_of_kind(rng, kind: int, dim: int):
    centre = rng.normal(0, 2, dim)
    if kind == 0:
        return Point(centre)
    if kind == 1:
        return Gaussian(centre, random_psd(rng, dim))
    if kind == 2:
        cells = [Number(float(centre[0])), Interval(-1.0, float(rng.uniform(-1.0, 3.0))),
                 Trapezoid(*np.sort(rng.normal(0, 2, 4))), Normal1D(float(centre[-1]), 0.7)]
        return ProductOf1D([cells[int(rng.integers(4))] for _ in range(dim)])
    return EmpiricalCluster(centre + rng.normal(0, 1, (int(rng.integers(1, 6)), dim)))


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    dim=st.integers(1, 5),
    kinds=st.lists(st.integers(0, 3), min_size=1, max_size=30),
)
def test_table_matches_the_per_item_formulas(seed, dim, kinds):
    from uapca.eigen import eig_sym, select_components
    from uapca.project import project_items

    rng = np.random.default_rng(seed)
    items = [_item_of_kind(rng, kind, dim) for kind in kinds]
    w = rng.uniform(0.1, 4.0, len(items))
    ds = UncertainDataset(items, weights=w)
    assert ds.full_covs.shape[0] + ds.diag_vars.shape[0] == sum(k != 0 for k in kinds)

    # The loop over items that the block sums replace.
    means = np.stack([it.mean() for it in items])
    x_bar = w @ means / w.sum()
    c = means - x_bar
    t_means = (c * w[:, None]).T @ c / w.sum()
    t_unc = np.zeros((dim, dim))
    for wi, item in zip(w, items):
        t_unc += wi * item.cov()
    t_unc /= w.sum()
    t_means, t_unc = (t_means + t_means.T) / 2.0, (t_unc + t_unc.T) / 2.0
    for s in (0.0, 1.0, math.inf):
        g = global_cov(ds, CovOptions(scale_s=s))
        expected = t_unc if math.isinf(s) else t_means + (s * s) * t_unc
        assert np.array_equal(g.matrix, expected)

    g = global_cov(ds)
    model = select_components(eig_sym(g.matrix), g.mean, min(2, dim))
    got_means, got_covs = project_items(model, ds, 2.0)
    a_t = model.components.T
    for i, item in enumerate(items):
        assert np.array_equal(got_means[i], a_t @ (item.mean() - model.mean))
        k = a_t @ item.cov() @ a_t.T
        assert np.array_equal(got_covs[i], 2.0 * ((k + k.T) / 2.0))


def test_one_axis_sums_the_items_in_order():
    # At D = 1 each block is a single column; numpy reduces a column
    # pairwise, so only an in-order sum matches the loop over items.
    rng = np.random.default_rng(5)
    items = [_item_of_kind(rng, kind, 1) for kind in rng.integers(0, 4, 200)]
    w = rng.uniform(0.1, 4.0, len(items))
    ds = UncertainDataset(items, weights=w)
    t_unc = np.zeros((1, 1))
    for wi, item in zip(w, items):
        t_unc += wi * item.cov()
    t_unc /= w.sum()
    assert np.array_equal(global_cov(ds, CovOptions(scale_s=math.inf)).matrix, t_unc)
