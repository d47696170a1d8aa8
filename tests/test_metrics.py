import multiprocessing
import os
import signal

import numpy as np
import pytest
from scipy import integrate, stats

import uapca.metrics
from uapca.cov import global_cov
from uapca.metrics import (
    DEFAULT_SAMPLE_COUNTS,
    ExperimentConfig,
    ExperimentRow,
    PcaSummary,
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

    scratch = np.empty((len(ds) + 1) * 200 * ds.dim)
    for n, seed in [(200, 1), (33, 2), (1, 3)]:
        mean, cov = reference(n, seed)
        # The first pass uses a fresh buffer; the later ones reuse the
        # scratch that the earlier, larger passes left dirty.
        for kwargs in ({}, {"scratch": scratch}):
            got = sampled_pca(ds, n, np.random.default_rng(seed), **kwargs)
            assert np.array_equal(got.mean, mean)
            assert np.array_equal(got.cov, cov)


def test_sampled_pca_rejects_an_unusable_scratch():
    ds = _mixed_dataset()
    size = (len(ds) + 1) * 8 * ds.dim
    for bad in (np.empty(size - 1), np.empty(size, dtype=np.float32),
                np.empty(2 * size)[::2], np.empty((size, 1))):
        with pytest.raises(ValueError, match="scratch"):
            sampled_pca(ds, 8, np.random.default_rng(0), scratch=bad)


def _serial_rows(cfg):
    """The experiment, one pass after another, from the public pieces."""
    rows = []
    for dim in cfg.dims:
        ds = uapca.metrics._experiment_dataset(dim, cfg.n_items, cfg.rng_seed)
        g = global_cov(ds)
        closed = PcaSummary(mean=g.mean, cov=g.at(1.0))
        for count in cfg.sample_counts:
            dists = [
                hellinger(
                    sampled_pca(ds, count, np.random.default_rng([cfg.rng_seed, dim, count, run])),
                    closed,
                )
                for run in range(cfg.runs)
            ]
            rows.append(ExperimentRow(dim, count, float(np.median(dists)), cfg.runs, cfg.rng_seed))
    return rows


def _assert_no_child_left():
    # waitpid(-1) raises ChildProcessError once this process has no child,
    # running or unreaped, at all.
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize("workers", [1, 3, 8])
def test_rows_do_not_depend_on_the_worker_count(monkeypatch, workers):
    # One worker runs the passes in this process; 3 and 8 fork more worker
    # processes than cores, so that a pass result written to the wrong slot
    # or lost would change a median.
    cfg = ExperimentConfig(dims=(2, 4, 5), sample_counts=(8, 64), n_items=3, runs=5, rng_seed=11)
    monkeypatch.setattr(uapca.metrics, "_worker_count", lambda: workers)
    rows = run_convergence_experiment(cfg)
    assert rows == _serial_rows(cfg)
    _assert_no_child_left()


def test_without_fork_the_passes_run_in_this_process(monkeypatch):
    cfg = ExperimentConfig(dims=(2, 3), sample_counts=(8, 16), n_items=3, runs=4, rng_seed=5)
    monkeypatch.setattr(uapca.metrics, "_worker_count", lambda: 4)
    monkeypatch.delattr(os, "fork")
    pid = os.getpid()
    pids = set()

    def recording(ds, n, rng, **kwargs):
        pids.add(os.getpid())
        return sampled_pca(ds, n, rng, **kwargs)

    monkeypatch.setattr(uapca.metrics, "sampled_pca", recording)
    assert run_convergence_experiment(cfg) == _serial_rows(cfg)
    assert pids == {pid}


def test_a_failing_pass_stops_the_pool(monkeypatch):
    cfg = ExperimentConfig(dims=(2, 3), sample_counts=(8, 16), n_items=3, runs=20, rng_seed=0)
    # Counted in shared memory: each worker is a forked process.
    calls = multiprocessing.get_context("fork").Value("i", 0)

    def failing(ds, n, rng, **kwargs):
        with calls.get_lock():
            calls.value += 1
            if calls.value == 3:
                raise MemoryError("no room")
        return sampled_pca(ds, n, rng, **kwargs)

    monkeypatch.setattr(uapca.metrics, "_worker_count", lambda: 2)
    monkeypatch.setattr(uapca.metrics, "sampled_pca", failing)
    with pytest.raises(MemoryError, match="no room"):
        run_convergence_experiment(cfg)
    # The other worker stops after the pass it is in, well short of all 80.
    assert 3 <= calls.value < 10
    _assert_no_child_left()


def test_an_exception_pickle_cannot_send_still_reaches_the_caller(monkeypatch):
    cfg = ExperimentConfig(dims=(2,), sample_counts=(8,), n_items=3, runs=4, rng_seed=0)

    class Local(Exception):  # pickle finds no class by this name
        pass

    def failing(ds, n, rng, **kwargs):
        raise Local("cannot be sent")

    monkeypatch.setattr(uapca.metrics, "_worker_count", lambda: 2)
    monkeypatch.setattr(uapca.metrics, "sampled_pca", failing)
    with pytest.raises(RuntimeError, match="a sampling worker process raised Local"):
        run_convergence_experiment(cfg)
    _assert_no_child_left()


def test_an_interrupt_reaps_every_worker(monkeypatch, tmp_path):
    cfg = ExperimentConfig(dims=(2, 3), sample_counts=(8, 16), n_items=3, runs=20, rng_seed=0)
    parent = os.getpid()
    sent = tmp_path / "sent"
    calls = multiprocessing.get_context("fork").Value("i", 0)

    def interrupting(ds, n, rng, **kwargs):
        with calls.get_lock():
            calls.value += 1
        # One SIGINT, from the first 3-dimensional pass: the forks are long done.
        if ds.dim == 3:
            try:
                os.close(os.open(sent, os.O_CREAT | os.O_EXCL))
            except FileExistsError:
                pass
            else:
                os.kill(parent, signal.SIGINT)
        return sampled_pca(ds, n, rng, **kwargs)

    monkeypatch.setattr(uapca.metrics, "_worker_count", lambda: 2)
    monkeypatch.setattr(uapca.metrics, "sampled_pca", interrupting)
    with pytest.raises(KeyboardInterrupt):
        run_convergence_experiment(cfg)
    # Each worker's first 20 passes are 2-dimensional.  The workers stop after
    # the pass they are in, so at most the other's 40 passes and the sender's
    # 21 run, not all 80.
    assert sent.exists() and 21 <= calls.value < 70
    _assert_no_child_left()


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
