import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy import integrate

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
    cov_matrix,
)

from conftest import random_psd


def trapezoid_moments_quadrature(a, b, c, d):
    """Adaptive-quadrature oracle for the trapezoid moments."""
    h = 2.0 / (d + c - b - a)

    def pdf(x):
        if x < a or x > d:
            return 0.0
        if x < b:
            return h * (x - a) / (b - a)
        if x <= c:
            return h
        return h * (d - x) / (d - c)

    kw = dict(points=[b, c], limit=200)
    mean, _ = integrate.quad(lambda x: x * pdf(x), a, d, **kw)
    second, _ = integrate.quad(lambda x: x * x * pdf(x), a, d, **kw)
    return mean, second - mean * mean


def test_interval_moments():
    iv = Interval(10.0, 12.0)
    assert iv.mean() == 11.0
    assert iv.variance() == pytest.approx(4.0 / 12.0, rel=1e-15)


def test_trapezoid_mean_example():
    # Symmetric trapezoid centered at 11; quadrature agrees.
    t = Trapezoid(8.0, 10.0, 12.0, 14.0)
    assert t.mean() == pytest.approx(11.0, abs=1e-12)
    m_q, v_q = trapezoid_moments_quadrature(8.0, 10.0, 12.0, 14.0)
    assert t.mean() == pytest.approx(m_q, abs=1e-9)
    assert t.variance() == pytest.approx(v_q, abs=1e-9)


@pytest.mark.parametrize(
    "params",
    [
        (0.0, 2.0, 5.0, 7.0),
        (3.0, 5.0, 8.0, 10.0),
        (1.0, 1.0, 1.0, 9.0),   # triangular, left degenerate
        (2.0, 5.0, 5.0, 5.0),   # triangular, right degenerate
        (0.0, 0.0, 1.0, 1.0),   # uniform as a trapezoid
        (10.0, 12.0, 15.0, 17.0),
    ],
)
def test_trapezoid_moments_match_quadrature(params):
    t = Trapezoid(*params)
    m_q, v_q = trapezoid_moments_quadrature(*params)
    assert t.mean() == pytest.approx(m_q, abs=1e-9)
    assert t.variance() == pytest.approx(v_q, abs=1e-9)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.floats(-50.0, 50.0), min_size=4, max_size=4))
def test_trapezoid_moments_property(raw):
    a, b, c, d = sorted(raw)
    assume(d - a > 0.01)  # closed form is ill-conditioned when nearly degenerate
    t = Trapezoid(a, b, c, d)
    slack = 1e-9 * (1.0 + abs(a) + abs(d))
    assert a - slack <= t.mean() <= d + slack
    assert t.variance() >= 0.0
    m_q, v_q = trapezoid_moments_quadrature(a, b, c, d)
    assert t.mean() == pytest.approx(m_q, rel=1e-7, abs=1e-7)
    assert t.variance() == pytest.approx(v_q, rel=1e-6, abs=1e-7)


@pytest.mark.parametrize("offset", [1e6, 1e8])
def test_trapezoid_moments_on_a_far_support(offset):
    # Unit-step trapezoid moved far from the origin: mean 1.5 + a, variance
    # 5/12, with no cancellation from the size of the offset.
    t = Trapezoid(offset, offset + 1.0, offset + 2.0, offset + 3.0)
    assert abs(t.mean() - (1.5 + offset)) <= 1e-9
    assert abs(t.variance() - 5.0 / 12.0) <= 1e-9


def test_degenerate_interval_and_trapezoid_are_points():
    assert Interval(3.0, 3.0).variance() == 0.0
    assert Interval(3.0, 3.0).mean() == 3.0
    t = Trapezoid(5.0, 5.0, 5.0, 5.0)
    assert t.mean() == 5.0
    assert t.variance() == 0.0
    rng = np.random.default_rng(0)
    assert np.all(t.sample(100, rng) == 5.0)


def test_normal1d_variance():
    assert Normal1D(14.0, 5.7).variance() == pytest.approx(32.49, abs=1e-12)


def test_scalar_validation():
    with pytest.raises(ValueError):
        Interval(2.0, 1.0)
    with pytest.raises(ValueError):
        Trapezoid(0.0, 2.0, 1.0, 3.0)
    with pytest.raises(ValueError):
        Normal1D(0.0, -1.0)
    with pytest.raises(ValueError):
        Number(float("nan"))


def test_point_cov_is_exactly_zero():
    p = Point([1.5, -2.0, 3.0])
    assert np.all(p.cov() == 0.0)
    assert np.array_equal(p.mean(), [1.5, -2.0, 3.0])


def test_product_cov_is_diagonal():
    d = ProductOf1D([Number(15.0), Interval(10.0, 12.0), Normal1D(14.0, 5.7)])
    cov = d.cov()
    assert np.array_equal(cov, np.diag([0.0, 4.0 / 12.0, 32.49]))
    assert np.array_equal(d.mean(), [15.0, 11.0, 14.0])


def test_empirical_cluster_population_moments():
    pts = np.array([[0.0, 0.0], [2.0, 0.0], [0.0, 2.0], [2.0, 2.0]])
    c = EmpiricalCluster(pts)
    assert np.array_equal(c.mean(), [1.0, 1.0])
    # population (1/n) covariance, not the n-1 form
    assert np.allclose(c.cov(), np.eye(2), atol=1e-15)


def test_empirical_cluster_resamples_own_points():
    pts = np.array([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]])
    c = EmpiricalCluster(pts)
    draws = c.sample(500, np.random.default_rng(3))
    assert all(any(np.array_equal(row, p) for p in pts) for row in draws)


@pytest.mark.parametrize("seed", [0, 1])
def test_gaussian_mc_moments(seed):
    rng = np.random.default_rng(seed)
    dim = 3
    cov = random_psd(rng, dim) + 0.1 * np.eye(dim)
    mean = rng.normal(0, 2, dim)
    g = Gaussian(mean, cov)
    n = 100_000
    draws = g.sample(n, np.random.default_rng(seed + 10))
    se_mean = 3.0 * np.sqrt(np.diag(cov) / n)
    assert np.all(np.abs(draws.mean(axis=0) - mean) <= se_mean)
    sample_cov = np.cov(draws.T, bias=True)
    se_cov = 3.0 * np.sqrt((np.outer(np.diag(cov), np.diag(cov)) + cov**2) / n)
    assert np.all(np.abs(sample_cov - cov) <= se_cov)


def test_product_mc_moments():
    d = ProductOf1D(
        [Interval(0.0, 4.0), Trapezoid(0.0, 1.0, 3.0, 6.0), Normal1D(-2.0, 1.5), Number(7.0)]
    )
    n = 100_000
    draws = d.sample(n, np.random.default_rng(42))
    mean, cov = d.mean(), d.cov()
    var = np.diag(cov)
    se_mean = 3.0 * np.sqrt(var / n)
    assert np.all(np.abs(draws.mean(axis=0) - mean) <= se_mean)
    sample_cov = np.cov(draws.T, bias=True)
    se_cov = 3.0 * np.sqrt((np.outer(var, var) + cov**2) / n) + 1e-15
    assert np.all(np.abs(sample_cov - cov) <= se_cov)


def test_second_moment_identity():
    # E[x x^T] = mean mean^T + cov, checked through an affine image.
    rng = np.random.default_rng(17)
    g = Gaussian(rng.normal(0, 1, 3), random_psd(rng, 3))
    a = rng.standard_normal((2, 3))
    b = rng.normal(0, 1, 2)
    mapped_mean = a @ g.mean() + b
    mapped_cov = a @ g.cov() @ a.T
    second = np.outer(mapped_mean, mapped_mean) + mapped_cov
    draws = g.sample(200_000, np.random.default_rng(18)) @ a.T + b
    mc_second = draws.T @ draws / draws.shape[0]
    assert np.abs(mc_second - second).max() < 0.05


def test_cov_matrix_symmetrizes_and_validates():
    k = cov_matrix([[1.0, 0.5 + 1e-15], [0.5, 1.0]])
    assert np.array_equal(k, k.T)
    with pytest.raises(ValueError, match="not symmetric"):
        cov_matrix([[1.0, 0.2], [0.4, 1.0]])
    with pytest.raises(ValueError, match="not positive semi-definite"):
        cov_matrix([[1.0, 0.0], [0.0, -0.5]])
    with pytest.raises(ValueError, match="non-finite"):
        cov_matrix([[np.inf, 0.0], [0.0, 1.0]])
    with pytest.raises(ValueError, match="square"):
        cov_matrix([[1.0, 0.0]])


def test_gaussian_validation():
    with pytest.raises(ValueError):
        Gaussian([0.0, 0.0], [[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]])
    with pytest.raises(ValueError):
        Gaussian([0.0], [[1.0, 0.0], [0.0, 1.0]])


def test_rescaled_items_are_the_rescaled_table_rows():
    # rescale maps only the columns; the items are built from them, so
    # points stay points and every other kind reads back as a Gaussian.
    rng = np.random.default_rng(23)
    scale = np.array([2.0, 0.5, 3.0])
    offset = np.array([1.0, -2.0, 0.25])
    ds = UncertainDataset([
        Point([1.0, 2.0, 3.0]),
        Gaussian(rng.normal(0, 1, 3), random_psd(rng, 3)),
        ProductOf1D([Interval(0.0, 2.0), Trapezoid(1.0, 2.0, 3.0, 4.0), Normal1D(0.0, 2.0)]),
        EmpiricalCluster(rng.normal(0, 1, (6, 3))),
    ])
    r = ds.rescale(scale, offset)
    assert [type(it) for it in r.items] == [Point, Gaussian, Gaussian, Gaussian]
    covs = {int(i): k for i, k in zip(r.full_index, r.full_covs)}
    covs.update((int(i), np.diag(v)) for i, v in zip(r.diag_index, r.diag_vars))
    for i, item in enumerate(r.items):
        assert np.array_equal(item.mean(), r.means()[i])
        assert np.array_equal(item.cov(), covs.get(i, np.zeros((3, 3))))
    assert np.array_equal(r.means(), scale * ds.means() + offset)
    with pytest.raises(ValueError, match="positive"):
        ds.rescale([1.0, -1.0, 1.0], offset)


def _every_kind():
    rng = np.random.default_rng(31)
    basis = rng.standard_normal((4, 2))
    return [
        Point([1.0, -2.0, 0.5, 4.0]),
        Gaussian(rng.normal(0, 1, 4), basis @ basis.T),  # rank 2
        ProductOf1D([Number(2.0), Interval(0.0, 3.0), Trapezoid(1.0, 2.0, 4.0, 5.0),
                     Normal1D(-1.0, 0.5)]),
        EmpiricalCluster(rng.normal(0, 1, (7, 4))),
    ]


def test_sampling_into_buffers_matches_fresh_arrays():
    n = 37
    for item in _every_kind():
        fresh = item.sample(n, np.random.default_rng(5))
        out = np.full((n, 4), np.nan)
        draws = np.full((n, 4), np.nan)
        got = item.sample(n, np.random.default_rng(5), out=out, draws=draws)
        assert got is out
        assert fresh.shape == (n, 4)
        assert np.array_equal(got, fresh)
        with pytest.raises(ValueError, match="shape"):
            item.sample(n, np.random.default_rng(5), out=np.empty((n + 1, 4)))


def test_gaussian_sample_is_mean_plus_factored_draws():
    g = _every_kind()[1]
    evals, evecs = np.linalg.eigh(g.cov())
    factor = evecs * np.sqrt(np.clip(evals, 0.0, None))
    z = np.random.default_rng(8).standard_normal((50, 4))
    assert np.array_equal(g.sample(50, np.random.default_rng(8)), g.mean() + z @ factor.T)


def test_dataset_validation():
    items = (Point([0.0, 1.0]), Point([1.0, 0.0]))
    ds = UncertainDataset(items)
    assert np.array_equal(ds.weights, [1.0, 1.0])
    assert ds.dim_names == ("x1", "x2")
    with pytest.raises(ValueError, match="empty"):
        UncertainDataset(())
    with pytest.raises(ValueError, match="dimension"):
        UncertainDataset((Point([0.0, 1.0]), Point([1.0])))
    with pytest.raises(ValueError, match="weights"):
        UncertainDataset(items, weights=np.array([1.0, -1.0]))
    with pytest.raises(ValueError, match="positive total"):
        UncertainDataset(items, weights=np.array([0.0, 0.0]))
    with pytest.raises(ValueError, match="dim_names"):
        UncertainDataset(items, dim_names=("a",))
    with pytest.raises(ValueError, match="labels"):
        UncertainDataset(items, labels=("only one",))
