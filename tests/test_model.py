import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy import integrate

from uapca.items import (
    EmpiricalCluster,
    Gaussian,
    Interval,
    Normal1D,
    Number,
    Point,
    ProductOf1D,
    Trapezoid,
)
from uapca.model import (
    PSD_RTOL,
    UncertainDataset,
    _median,
    _population_moments,
    _require_psd_spectra,
    _row_mean,
    cov_matrix,
)

from uapca.metrics import PcaSummary

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
    with pytest.raises(TypeError):
        Interval("0", "2")


@pytest.mark.parametrize("make", [
    lambda: Interval("0", "2"),
    lambda: Point(["1", "2"]),
    lambda: Gaussian(["0"], [["1"]]),
    lambda: Gaussian([0.0], [["1"]]),
    lambda: EmpiricalCluster([["1", "2"]]),
    lambda: Point([1j]),
], ids=["cell", "point", "gaussian-mean", "gaussian-cov", "cluster", "complex"])
def test_non_real_entries_are_a_type_error(make):
    # Items refuse text as the cells do, rather than reading it as a number.
    with pytest.raises(TypeError):
        make()


@pytest.mark.parametrize("cls, params, text", [
    (Number, (math.inf,), "number value must be finite"),
    (Interval, (math.inf, -math.inf), "interval bounds must be finite"),
    (Interval, (2, 1), "interval bounds must satisfy lo <= hi, got [2, 1]"),
    (Trapezoid, (0.0, math.nan, 1.0, 0.0), "trapezoid parameters must be finite"),
    (Trapezoid, (0.0, 2.0, 1.0, 3.0),
     "trapezoid parameters must satisfy a <= b <= c <= d, got (0.0, 2.0, 1.0, 3.0)"),
    (Normal1D, (math.nan, -1.0), "normal parameters must be finite"),
    (Normal1D, (0.0, -1.0), "normal sd must be non-negative, got -1.0"),
])
def test_cell_rules_are_checked_finite_first(cls, params, text):
    # The dataset reader words a rejected cell by the same rules and texts.
    with pytest.raises(ValueError) as err:
        cls(*params)
    assert str(err.value) == text


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


def test_every_kind_samples_a_new_n_by_d_array():
    n = 37
    for item in _every_kind():
        got = item.sample(n, np.random.default_rng(5))
        assert got.shape == (n, 4) and got.dtype == np.float64
        kept = got.copy()
        # A new array: writing to it leaves the item, and so the next draw, alone.
        got[...] = np.nan
        assert np.array_equal(item.sample(n, np.random.default_rng(5)), kept)


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


def test_dataset_rejects_covariances_that_are_not_finite():
    # Each item is valid on its own, but its variance overflows.
    wide = ProductOf1D([Interval(-1e308, 1e308), Interval(0.0, 1.0)])
    spread = EmpiricalCluster([[1e308, 1e308], [-1e308, -1e308]])
    point = Point([0.0, 0.0])
    with pytest.raises(ValueError, match=r"^item 0: covariance contains non-finite entries$"):
        UncertainDataset([wide, point])
    with pytest.raises(ValueError, match=r"^item 1: covariance contains non-finite entries$"):
        UncertainDataset([point, spread])
    # The first bad item in dataset order, whichever block holds it.
    with pytest.raises(ValueError, match=r"^item 1: covariance"):
        UncertainDataset([point, wide, spread])
    with pytest.raises(ValueError, match=r"^item 2: covariance"):
        UncertainDataset([point, Gaussian([0.0, 0.0], np.eye(2)), spread, wide])
    # Variances whose square overflows are inf, not an OverflowError.
    for cell in (Interval(-1e200, 1e200), Normal1D(0.0, 1e200), Trapezoid(0.0, 0.0, 1e110, 1e110)):
        with pytest.raises(ValueError, match=r"^item 1: covariance contains non-finite entries$"):
            UncertainDataset([point, ProductOf1D([Number(0.0), cell])])


def test_psd_rule_on_spectra_at_the_floor():
    hi = np.array([2.0, 2.0, 2.0, 0.0])
    floor = -PSD_RTOL * 2.0
    # At the floor, just above it, and a zero matrix: all accepted.
    _require_psd_spectra(np.array([floor, np.nextafter(floor, 0.0), 0.0, 0.0]), hi, str)
    below = np.array([floor, np.nextafter(floor, -1.0), 0.0, 0.0])
    with pytest.raises(ValueError, match=r"^m1 is not positive semi-definite "
                                         r"\(min eigenvalue -2\.000e-09, scale 2\.000e\+00\)$"):
        _require_psd_spectra(below, hi, lambda i: f"m{i}")
    # A lowest eigenvalue at least as large in magnitude as the highest.
    with pytest.raises(ValueError, match=r"^m0 .*scale 1\.000e\+00\)$"):
        _require_psd_spectra(np.array([-1.0]), np.array([0.5]), lambda i: f"m{i}")


@settings(max_examples=200, deadline=None, derandomize=True)
@given(values=st.lists(st.one_of(st.floats(allow_nan=False, allow_infinity=False,
                                           min_value=-1e300, max_value=1e300),
                                 st.sampled_from([0.0, -0.0, 1.0, 0.1, 1e-300])),
                       min_size=1, max_size=12))
@example(values=[-0.0])
@example(values=[0.0, 0.0, -1.0, -5e-324])  # the sum from 0.0 keeps -5e-324 / 2 at -0.0
def test_median_has_the_bits_of_np_median(values):
    x = np.array(values)
    assert np.float64(_median(x)).tobytes() == np.median(x).tobytes()
    assert math.isnan(_median(np.append(x, math.nan)))


@settings(max_examples=150, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**32 - 1), dim=st.integers(1, 16),
       n=st.one_of(st.integers(1, 64), st.integers(8100, 8300), st.integers(16000, 25000)),
       offset=st.sampled_from([0.0, 1.0, -3e3, 1e8, -1e8]),
       special=st.sampled_from(["none", "negative zeros", "overflow"]),
       layout=st.sampled_from(["C", "F", "strided"]))
@example(seed=0, dim=2, n=8193, offset=1e8, special="none", layout="C")
@example(seed=0, dim=1, n=20000, offset=1e8, special="none", layout="C")
@example(seed=0, dim=3, n=2, offset=0.0, special="negative zeros", layout="C")
@example(seed=0, dim=4, n=9000, offset=0.0, special="overflow", layout="C")
def test_row_mean_has_the_bits_of_mean(seed, dim, n, offset, special, layout):
    # numpy adds C-ordered columns in row order but a single column (and
    # columns laid out contiguously) pairwise; both sides of its 8192-element
    # block, offsets that leave rounding in every sum, -0.0 columns and sums
    # that overflow (inf, with no warning: RuntimeWarnings fail this suite).
    rng = np.random.default_rng(seed)
    rows = offset + rng.standard_normal((n, dim)) * rng.uniform(0.1, 1e3, dim)
    if special == "negative zeros":
        rows[:, rng.integers(dim)] = -0.0
    elif special == "overflow":
        rows[:, rng.integers(dim)] = 1e308
    if layout == "F":
        rows = np.asfortranarray(rows)
    elif layout == "strided":
        rows = np.repeat(rows, 2, axis=1)[:, ::2]
    with np.errstate(over="ignore"):
        expected = rows.mean(axis=0)
    assert _row_mean(rows).tobytes() == expected.tobytes()
    c_rows = np.ascontiguousarray(rows)
    assert EmpiricalCluster(rows).mean().tobytes() == _population_moments(c_rows)[0].tobytes()


@pytest.mark.parametrize("build, mean_of", [
    (Point, Point.mean),
    (lambda a: Gaussian(a, np.eye(2)), Gaussian.mean),
    (lambda a: PcaSummary(a, np.eye(2)), lambda p: p.mean),
], ids=["Point", "Gaussian", "PcaSummary"])
def test_building_leaves_the_callers_array_writeable(build, mean_of):
    rows = np.array([[1.0, 2.0], [3.0, 4.0]])
    for a in (np.array([1.0, 2.0]), rows[0]):
        built = build(a)
        assert a.flags.writeable and rows.flags.writeable
        assert not mean_of(built).flags.writeable
        a[0] = 9.0  # the built object holds a copy of its own
        assert mean_of(built).tolist() == [1.0, 2.0]
