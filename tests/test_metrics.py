import numpy as np
import pytest
from scipy import integrate, stats

import uapca.metrics
from uapca.cli import main
from uapca.cov import global_cov
from uapca.metrics import (
    DEFAULT_SAMPLE_COUNTS,
    ExperimentConfig,
    ExperimentRow,
    PcaSummary,
    _pooled_gaussian_moments,
    bhattacharyya_coeff,
    hellinger,
    run_convergence_experiment,
    sampled_pca,
    samples_to_reach,
)
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
from uapca.model import UncertainDataset, _population_moments

from conftest import random_psd


def _summary(mean, cov):
    return PcaSummary(mean=np.asarray(mean, dtype=float), cov=np.asarray(cov, dtype=float))


def test_coefficient_matches_quadrature_1d():
    p = _summary([0.0], [[1.0]])
    q = _summary([2.0], [[1.0]])
    got = bhattacharyya_coeff(p, q)
    assert got == pytest.approx(np.exp(-0.5), abs=1e-12)

    def integrand(x):
        return np.sqrt(stats.norm.pdf(x, 0.0, 1.0) * stats.norm.pdf(x, 2.0, 1.0))

    ref, _ = integrate.quad(integrand, -np.inf, np.inf)
    assert got == pytest.approx(ref, abs=1e-9)


def test_coefficient_matches_quadrature_1d_unequal_variances():
    p = _summary([0.5], [[1.3]])
    q = _summary([-0.7], [[0.4]])

    def integrand(x):
        return np.sqrt(
            stats.norm.pdf(x, 0.5, np.sqrt(1.3)) * stats.norm.pdf(x, -0.7, np.sqrt(0.4))
        )

    ref, _ = integrate.quad(integrand, -np.inf, np.inf)
    assert bhattacharyya_coeff(p, q) == pytest.approx(ref, abs=1e-9)


def test_coefficient_matches_quadrature_2d():
    cp = np.array([[1.0, 0.3], [0.3, 0.8]])
    cq = np.array([[0.6, -0.2], [-0.2, 1.4]])
    p = _summary([0.0, 0.5], cp)
    q = _summary([1.0, -0.5], cq)
    rv_p = stats.multivariate_normal([0.0, 0.5], cp)
    rv_q = stats.multivariate_normal([1.0, -0.5], cq)

    def integrand(y, x):
        pt = (x, y)
        return np.sqrt(rv_p.pdf(pt) * rv_q.pdf(pt))

    ref, _ = integrate.dblquad(integrand, -10.0, 10.0, -10.0, 10.0, epsabs=1e-9)
    assert bhattacharyya_coeff(p, q) == pytest.approx(ref, abs=1e-6)


def test_shared_covariance_reduces_to_mahalanobis():
    rng = np.random.default_rng(5)
    cov = random_psd(rng, 4) + 0.1 * np.eye(4)
    mu_p = rng.normal(0, 1, 4)
    mu_q = rng.normal(0, 1, 4)
    d = mu_p - mu_q
    maha = d @ np.linalg.solve(cov, d)
    got = bhattacharyya_coeff(_summary(mu_p, cov), _summary(mu_q, cov))
    assert got == pytest.approx(np.exp(-maha / 8.0), rel=1e-12)


def test_metric_properties():
    rng = np.random.default_rng(6)
    summaries = [
        _summary(rng.normal(0, 1, 3), random_psd(rng, 3) + 0.05 * np.eye(3))
        for _ in range(6)
    ]
    for p in summaries:
        assert bhattacharyya_coeff(p, p) == pytest.approx(1.0, abs=1e-12)
        assert hellinger(p, p) == pytest.approx(0.0, abs=1e-9)
    for p in summaries:
        for q in summaries:
            bc = bhattacharyya_coeff(p, q)
            assert 0.0 <= bc <= 1.0
            assert bc == pytest.approx(bhattacharyya_coeff(q, p), rel=1e-12)
            assert 0.0 <= hellinger(p, q) <= 1.0
    for p in summaries:
        for q in summaries:
            for r in summaries:
                assert hellinger(p, q) <= hellinger(p, r) + hellinger(r, q) + 1e-9


def test_singular_covariances_are_regularized():
    zero = _summary([0.0, 0.0], np.zeros((2, 2)))
    assert hellinger(zero, zero) == pytest.approx(0.0, abs=1e-9)
    apart = _summary([5.0, 0.0], np.zeros((2, 2)))
    # Two far-apart near-point masses barely overlap.
    assert hellinger(zero, apart) > 0.999


def test_irrecoverably_bad_covariance_raises():
    bad = _summary([0.0], [[-1.0]])
    ok = _summary([0.0], [[1.0]])
    with pytest.raises(ValueError, match="singular"):
        bhattacharyya_coeff(bad, ok)


def test_dimension_mismatch_raises():
    with pytest.raises(ValueError, match="different dimensions"):
        bhattacharyya_coeff(_summary([0.0], [[1.0]]), _summary([0.0, 0.0], np.eye(2)))


def test_summary_validation():
    with pytest.raises(ValueError):
        PcaSummary(mean=np.zeros(2), cov=np.zeros((3, 3)))
    with pytest.raises(ValueError):
        PcaSummary(mean=np.zeros(2), cov=np.full((2, 2), np.nan))


def test_sampled_pca_on_points_is_exact():
    rng = np.random.default_rng(7)
    pts = rng.normal(0, 2, (9, 3))
    ds = UncertainDataset(items=tuple(Point(p) for p in pts))
    got = sampled_pca(ds, 7, np.random.default_rng(0))
    g = global_cov(ds)
    exact = PcaSummary(mean=g.mean, cov=g.at(1.0))
    assert np.abs(got.mean - exact.mean).max() <= 1e-12
    assert np.abs(got.cov - exact.cov).max() <= 1e-12


def test_sampled_pca_converges_to_closed_form():
    rng = np.random.default_rng(8)
    items = tuple(Gaussian(rng.normal(0, 1, 3), random_psd(rng, 3)) for _ in range(5))
    ds = UncertainDataset(items=items)
    g = global_cov(ds)
    closed = PcaSummary(mean=g.mean, cov=g.at(1.0))
    sampled = sampled_pca(ds, 100_000, np.random.default_rng(1))
    assert hellinger(sampled, closed) < 0.05


def test_sampled_pca_is_deterministic():
    rng = np.random.default_rng(9)
    items = tuple(Gaussian(rng.normal(0, 1, 2), random_psd(rng, 2)) for _ in range(3))
    ds = UncertainDataset(items=items)
    a = sampled_pca(ds, 50, np.random.default_rng(42))
    b = sampled_pca(ds, 50, np.random.default_rng(42))
    assert np.array_equal(a.mean, b.mean)
    assert np.array_equal(a.cov, b.cov)


def test_sampled_pca_validation():
    ds = UncertainDataset(items=(Point([0.0]), Point([1.0])))
    with pytest.raises(ValueError):
        sampled_pca(ds, 0, np.random.default_rng(0))


def _mixed_dataset():
    rng = np.random.default_rng(12)
    basis = rng.standard_normal((3, 1))
    return UncertainDataset(items=(
        Point([1.0, 2.0, -1.0]),
        Gaussian(rng.normal(0, 1, 3), basis @ basis.T),  # rank 1
        ProductOf1D([Number(0.5), Interval(-1.0, 1.0), Trapezoid(0.0, 1.0, 2.0, 4.0)]),
        ProductOf1D([Normal1D(3.0, 0.2), Number(-4.0), Interval(2.0, 2.5)]),
        EmpiricalCluster(rng.normal(0, 1, (5, 3))),
    ))


def test_pooled_sampling_is_bit_identical_to_stacked_draws():
    ds = _mixed_dataset()

    def reference(n, seed):
        rng = np.random.default_rng(seed)
        return _population_moments(np.vstack([item.sample(n, rng) for item in ds.items]))

    for n, seed in [(200, 1), (33, 2), (1, 3)]:
        mean, cov = reference(n, seed)
        got = sampled_pca(ds, n, np.random.default_rng(seed))
        assert np.array_equal(got.mean, mean)
        assert np.array_equal(got.cov, cov)


# ---------------------------------------------------------------------------
# The experiment's moment route against the row route it replaces.


def _moment_pass(means, factor, n, seed):
    return _pooled_gaussian_moments(means, factor, n, np.random.default_rng(seed))


@pytest.mark.parametrize("dim, n", [(2, 16), (6, 64), (12, 1024)])
def test_moment_route_has_the_row_route_distances_in_distribution(dim, n):
    # Two-sample KS test of 400 seeded Hellinger distances per route, at
    # alpha = 0.001: a route that drew the wrong law would be rejected.
    alpha, runs = 0.001, 400
    ds = uapca.metrics._experiment_dataset(dim, 10, 0)
    means, factor = ds.means(), ds.items[0]._sampling_factor()
    g = global_cov(ds)
    closed = PcaSummary(mean=g.mean, cov=g.at(1.0))
    moments = [hellinger(_moment_pass(means, factor, n, [1, dim, n, run]), closed)
               for run in range(runs)]
    rows = [hellinger(sampled_pca(ds, n, np.random.default_rng([2, dim, n, run])), closed)
            for run in range(runs)]
    assert stats.ks_2samp(moments, rows).pvalue > alpha


@pytest.mark.parametrize("dim, items, n", [(6, 10, 16), (6, 3, 3), (12, 2, 2), (4, 5, 1)])
def test_moment_route_has_the_exact_expectation(dim, items, n):
    # n draws from each of N equal-weight items N(m_i, Psi) pool to a mean
    # with expectation mean(m_i) and a covariance with expectation
    # Cov(m_i) + (1 - 1/(N n)) Psi.  (6, 3, 3) has N (n - 1) = D, the fewest
    # degrees of freedom Bartlett's decomposition takes, (12, 2, 2) has
    # N (n - 1) < D and (4, 5, 1) no within-item scatter.  Every entry's z-score
    # over 4000 passes stays within 4.5: about 7e-6 per entry by chance, so
    # under 1e-3 over the at most 90 entries of a case.
    rng = np.random.default_rng([5, dim, items, n])
    means = rng.normal(0.0, 2.0, (items, dim))
    psi = random_psd(rng, dim)
    factor = Gaussian(means[0], psi)._sampling_factor()
    passes = [_moment_pass(means, factor, n, [6, dim, items, n, run]) for run in range(4000)]
    upper = np.triu_indices(dim)
    got = np.array([np.concatenate([p.mean, p.cov[upper]]) for p in passes])
    want = np.concatenate([means.mean(axis=0),
                           (_population_moments(means)[1] + (1 - 1 / (items * n)) * psi)[upper]])
    z = (got.mean(axis=0) - want) / (got.std(axis=0, ddof=1) / np.sqrt(len(passes)))
    assert np.abs(z).max() < 4.5


@pytest.mark.parametrize("items, n", [(2, 2), (3, 1)])
def test_few_degrees_of_freedom_give_a_psd_summary(items, n):
    # N (n - 1) = 2 and 0 are below D = 12: the within scatter is F Z^T Z F^T
    # from 2 rows of Z, or zero, and the pooled covariance has rank at most
    # N - 1 + N (n - 1).
    dim = 12
    ds = uapca.metrics._experiment_dataset(dim, items, 0)
    got = _moment_pass(ds.means(), ds.items[0]._sampling_factor(), n, 0)
    assert np.all(np.isfinite(got.mean)) and np.all(np.isfinite(got.cov))
    assert np.array_equal(got.cov, got.cov.T)
    evals = np.linalg.eigvalsh(got.cov)
    assert evals.min() >= -1e-12 * evals.max()
    assert np.count_nonzero(evals > 1e-9 * evals.max()) <= items - 1 + items * (n - 1)


def test_compare_sampling_runs_below_dim_degrees_of_freedom(tmp_path, capsys, monkeypatch):
    monkeypatch.delenv("UAPCA_SEED", raising=False)
    out = tmp_path / "few.csv"
    assert main(["compare-sampling", "--dims", "12", "--items", "2", "--samples", "1,2",
                 "--out", str(out)]) == 0
    assert len(out.read_text().splitlines()) == 3
    assert capsys.readouterr().out.splitlines()[0] == (
        "dim 12: median Hellinger never fell below 0.1")


def test_experiment_config_validation():
    with pytest.raises(ValueError, match="strictly increasing"):
        ExperimentConfig(sample_counts=(16, 16))
    with pytest.raises(ValueError, match="runs"):
        ExperimentConfig(runs=0)
    with pytest.raises(ValueError, match="n_items"):
        ExperimentConfig(n_items=1)
    with pytest.raises(ValueError, match="dims"):
        ExperimentConfig(dims=())
    with pytest.raises(ValueError, match="rng_seed"):
        ExperimentConfig(rng_seed=-1)
    assert ExperimentConfig().sample_counts == DEFAULT_SAMPLE_COUNTS


def test_experiment_rows_are_ordered_and_deterministic():
    cfg = ExperimentConfig(dims=(2, 3), sample_counts=(8, 32), n_items=4, runs=3, rng_seed=1)
    rows = run_convergence_experiment(cfg)
    assert [(r.dim, r.samples) for r in rows] == [(2, 8), (2, 32), (3, 8), (3, 32)]
    assert all(r.runs == 3 and r.seed == 1 for r in rows)
    assert all(0.0 <= r.median_hellinger <= 1.0 for r in rows)
    assert rows == run_convergence_experiment(cfg)


def test_more_samples_reduce_the_median_distance():
    cfg = ExperimentConfig(dims=(3,), sample_counts=(8, 512), n_items=6, runs=15, rng_seed=2)
    low, high = run_convergence_experiment(cfg)
    assert high.median_hellinger < low.median_hellinger


def test_samples_to_reach():
    rows = [
        ExperimentRow(dim=2, samples=16, median_hellinger=0.5, runs=1, seed=0),
        ExperimentRow(dim=2, samples=64, median_hellinger=0.08, runs=1, seed=0),
        ExperimentRow(dim=3, samples=16, median_hellinger=0.4, runs=1, seed=0),
        ExperimentRow(dim=3, samples=64, median_hellinger=0.2, runs=1, seed=0),
    ]
    assert samples_to_reach(rows, 2) == 64
    assert samples_to_reach(rows, 3) is None
    assert samples_to_reach(rows, 2, target=0.6) == 16
