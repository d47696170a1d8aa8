"""Acceptance gate: ten end-to-end checks, one test per criterion.

Run with ``pytest -v tests/test_acceptance.py`` to get a pass/fail line per
criterion; each test also prints its measured numbers (visible with -s or
on failure).
"""

import math
import os
import subprocess
import sys
import time

import numpy as np

from uapca.cov import global_cov
from uapca.eigen import eig_sym, principal_angles, select_components
from uapca.io import PointsData, aggregate_by_label, load_points
from uapca.metrics import (
    ExperimentConfig,
    PcaSummary,
    hellinger,
    run_convergence_experiment,
    samples_to_reach,
)
from uapca.items import Gaussian, Point
from uapca.model import UncertainDataset
from uapca.sensitivity import SweepSchedule, factor_traces, sweep

from conftest import random_psd


def _report(name: str, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")


def _random_gaussian_dataset(rng, d: int, n: int, weighted: bool = False) -> UncertainDataset:
    items = tuple(Gaussian(rng.normal(0.0, 2.0, d), random_psd(rng, d)) for _ in range(n))
    weights = rng.uniform(0.5, 3.0, n) if weighted else None
    return UncertainDataset(items=items, weights=weights)


def test_criterion_01_zero_scale_reduces_to_point_pca():
    rng = np.random.default_rng(101)
    start = time.perf_counter()
    worst = 0.0
    for _ in range(100):
        d = int(rng.integers(1, 7))
        n = int(rng.integers(2, 31))
        ds = _random_gaussian_dataset(rng, d, n)
        at_zero = global_cov(ds)
        from_means = global_cov(UncertainDataset(tuple(map(Point, ds.means()))))
        diff = float(np.linalg.norm(at_zero.at(0.0) - from_means.at(0.0)))
        diff = max(diff, float(np.abs(at_zero.mean - from_means.mean).max()))
        worst = max(worst, diff)
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-12 and elapsed < 5.0
    _report(
        "criterion 01 (s=0 equals point PCA on the means)",
        ok,
        f"100 datasets, worst diff {worst:.2e} (tol 1e-12), {elapsed:.2f}s (limit 5s)",
    )
    assert worst <= 1e-12
    assert elapsed < 5.0


def test_criterion_02_quadratic_scaling_law():
    rng = np.random.default_rng(102)
    start = time.perf_counter()
    worst = 0.0
    for _ in range(20):
        d = int(rng.integers(2, 7))
        ds = _random_gaussian_dataset(rng, d, int(rng.integers(3, 12)), weighted=True)
        base = global_cov(ds)
        for s in (0.0, 0.5, 1.0, 2.0, 10.0):
            direct = global_cov(ds).at(s)
            assembled = base.term_means + s * s * base.term_uncertainty
            worst = max(worst, float(np.linalg.norm(direct - assembled)))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-12 and elapsed < 2.0
    _report(
        "criterion 02 (matrix(s) = term_means + s^2 term_uncertainty)",
        ok,
        f"s in {{0, 0.5, 1, 2, 10}}, worst diff {worst:.2e} (tol 1e-12), "
        f"{elapsed:.2f}s (limit 2s)",
    )
    assert worst <= 1e-12
    assert elapsed < 2.0


def test_criterion_03_psd_closure_fuzz():
    rng = np.random.default_rng(103)
    start = time.perf_counter()

    def floor_margin(mats: np.ndarray) -> float:
        """Most negative (min_eig + 1e-9 * max(lam_max, 0)) over a batch."""
        evals = np.linalg.eigvalsh(mats)
        lam_max = np.maximum(evals[:, -1], 0.0)
        return float((evals[:, 0] + 1e-9 * lam_max).min())

    # (a) 10k outer products x x^T.
    xs = rng.normal(0.0, 3.0, (10_000, 6))
    outers = np.einsum("ni,nj->nij", xs, xs)
    margin_a = floor_margin(outers)

    # (b) 10k non-negative mixtures of PSD matrices.
    a = rng.normal(0.0, 1.0, (10_000, 3, 5, 5))
    psd = a @ a.transpose(0, 1, 3, 2)
    w = rng.uniform(0.0, 1.0, (10_000, 3))
    w /= w.sum(axis=1, keepdims=True)
    mixtures = np.einsum("nk,nkij->nij", w, psd)
    mixtures = (mixtures + mixtures.transpose(0, 2, 1)) / 2.0
    margin_b = floor_margin(mixtures)

    # (c) 10k swept global covariances over random datasets.
    by_dim: dict[int, list[np.ndarray]] = {}
    for _ in range(10_000):
        d = int(rng.integers(2, 5))
        n = int(rng.integers(2, 5))
        items = tuple(
            Point(rng.normal(0.0, 1.0, d)) if rng.random() < 0.3
            else Gaussian(rng.normal(0.0, 1.0, d), random_psd(rng, d))
            for _ in range(n)
        )
        ds = UncertainDataset(items=items)
        s = math.inf if rng.random() < 0.1 else float(rng.uniform(0.0, 3.0))
        by_dim.setdefault(d, []).append(global_cov(ds).at(s))
    margin_c = min(floor_margin(np.stack(group)) for group in by_dim.values())

    elapsed = time.perf_counter() - start
    worst = min(margin_a, margin_b, margin_c)
    ok = worst >= 0.0 and elapsed < 30.0
    _report(
        "criterion 03 (PSD closure under outer products, mixtures, sweeps)",
        ok,
        f"3x10k cases, worst floor margins a={margin_a:.2e} b={margin_b:.2e} "
        f"c={margin_c:.2e} (all must be >= 0), {elapsed:.2f}s (limit 30s)",
    )
    assert margin_a >= 0.0
    assert margin_b >= 0.0
    assert margin_c >= 0.0
    assert elapsed < 30.0


def test_criterion_04_eigensolver_quality():
    rng = np.random.default_rng(104)
    start = time.perf_counter()
    worst_resid = worst_orth = worst_trace = 0.0
    for _ in range(1000):
        d = int(rng.integers(1, 13))
        k = random_psd(rng, d)
        pairs = eig_sym(k)
        lam1 = float(pairs.values[0])
        resid = np.linalg.norm(k @ pairs.vectors - pairs.vectors * pairs.values, axis=0)
        worst_resid = max(worst_resid, float(resid.max()) / max(1.0, lam1))
        orth = float(np.abs(pairs.vectors.T @ pairs.vectors - np.eye(d)).max())
        worst_orth = max(worst_orth, orth)
        tr = float(np.trace(k))
        worst_trace = max(worst_trace, abs(float(pairs.values.sum()) - tr) / max(1.0, abs(tr)))
    elapsed = time.perf_counter() - start
    ok = (
        worst_resid <= 1e-8 and worst_orth <= 1e-10 and worst_trace <= 1e-10
        and elapsed < 30.0
    )
    _report(
        "criterion 04 (eigensolver residual/orthonormality/trace)",
        ok,
        f"1000 matrices D<=12, residual {worst_resid:.2e} (tol 1e-8), "
        f"orthonormality {worst_orth:.2e} (tol 1e-10), trace {worst_trace:.2e} "
        f"(tol 1e-10), {elapsed:.2f}s (limit 30s)",
    )
    assert worst_resid <= 1e-8
    assert worst_orth <= 1e-10
    assert worst_trace <= 1e-10
    assert elapsed < 30.0


def test_criterion_05_projected_normal_matches_monte_carlo():
    rng = np.random.default_rng(105)
    start = time.perf_counter()
    n = 100_000
    worst_sigma = 0.0
    for _ in range(20):
        ds = _random_gaussian_dataset(rng, 4, 8)
        g = global_cov(ds)
        model = select_components(eig_sym(g.at(1.0)), g.mean, 2)
        item = Gaussian(rng.normal(0.0, 1.0, 4), random_psd(rng, 4))
        expected_mean = model.components.T @ (item.mean() - model.mean)
        expected_cov = model.components.T @ item.cov() @ model.components
        draws = (item.sample(n, rng) - model.mean) @ model.components

        mean_se = np.sqrt(np.diag(expected_cov) / n)
        mean_sigmas = np.abs(draws.mean(axis=0) - expected_mean) / mean_se
        worst_sigma = max(worst_sigma, float(mean_sigmas.max()))

        sample_cov = np.cov(draws.T, bias=True)
        for i in range(2):
            for j in range(2):
                se = np.sqrt(
                    (expected_cov[i, i] * expected_cov[j, j] + expected_cov[i, j] ** 2) / n
                )
                sigmas = abs(sample_cov[i, j] - expected_cov[i, j]) / se
                worst_sigma = max(worst_sigma, float(sigmas))
    elapsed = time.perf_counter() - start
    ok = worst_sigma <= 3.0 and elapsed < 60.0
    _report(
        "criterion 05 (projected normal moments vs 1e5-draw Monte Carlo)",
        ok,
        f"20 cases D=4->q=2, worst deviation {worst_sigma:.2f} standard errors "
        f"(tol 3), {elapsed:.2f}s (limit 60s)",
    )
    assert worst_sigma <= 3.0
    assert elapsed < 60.0


def test_criterion_06_iris_clusters_match_point_pca(iris_path):
    pts = load_points(iris_path)
    point_pca = global_cov(UncertainDataset(tuple(map(Point, pts.points))))
    clusters = aggregate_by_label(pts)
    cluster_pca = global_cov(clusters)

    a = eig_sym(point_pca.at(0.0)).vectors[:, :2]
    b = eig_sym(cluster_pca.at(1.0)).vectors[:, :2]
    angles_deg = np.degrees(principal_angles(a, b))
    dist = hellinger(
        PcaSummary(mean=point_pca.mean, cov=point_pca.at(0.0)),
        PcaSummary(mean=cluster_pca.mean, cov=cluster_pca.at(1.0)),
    )
    ok = float(angles_deg.max()) < 5.0 and dist < 0.05
    _report(
        "criterion 06 (3 class Gaussians vs 150 points on the flower data)",
        ok,
        f"max principal angle {angles_deg.max():.2e} deg (tol 5), "
        f"Hellinger {dist:.2e} (tol 0.05)",
    )
    assert float(angles_deg.max()) < 5.0
    assert dist < 0.05


def test_criterion_07_weighted_clusters_match_pooled_points():
    rng = np.random.default_rng(107)
    start = time.perf_counter()
    counts = (4420, 2165, 542, 68)  # 65:1 between largest and smallest
    d = 5
    blocks = []
    labels = []
    for ci, count in enumerate(counts):
        center = rng.normal(0.0, 4.0, d)
        spread = random_psd(rng, d)
        evals, evecs = np.linalg.eigh(spread)
        factor = evecs * np.sqrt(np.clip(evals, 0.0, None))
        blocks.append(center + rng.standard_normal((count, d)) @ factor.T)
        labels.extend([f"class{ci}"] * count)
    points = np.vstack(blocks)
    pts = PointsData(points=points, dim_names=tuple(f"x{i}" for i in range(d)),
                     labels=tuple(labels))
    clusters = aggregate_by_label(pts)
    cluster_cov = global_cov(clusters).at(1.0)
    point_cov = global_cov(UncertainDataset(tuple(map(Point, points)))).at(0.0)
    diff = float(np.linalg.norm(cluster_cov - point_cov))
    elapsed = time.perf_counter() - start
    ok = diff <= 1e-10 and elapsed < 10.0
    _report(
        "criterion 07 (weighted cluster PCA equals pooled point PCA)",
        ok,
        f"class sizes {counts}, Frobenius diff {diff:.2e} (tol 1e-10), "
        f"{elapsed:.2f}s (limit 10s)",
    )
    assert diff <= 1e-10
    assert elapsed < 10.0


def test_criterion_07_holds_with_one_point_classes():
    # Classes of one point are rows with zero covariance, so they enter K(1)
    # as the points themselves enter K(0).
    rng = np.random.default_rng(207)
    d = 4
    labels = [f"big{i % 3}" for i in range(300)] + [f"one{i}" for i in range(12)]
    order = rng.permutation(len(labels))
    labels = [labels[i] for i in order]
    points = rng.normal(0.0, 3.0, (len(labels), d)) + rng.normal(0.0, 5.0, d)
    pts = PointsData(points=points, dim_names=tuple(f"x{i}" for i in range(d)),
                     labels=tuple(labels))
    clusters = aggregate_by_label(pts)
    assert len(clusters) == 15
    cluster_cov = global_cov(clusters).at(1.0)
    point_cov = global_cov(UncertainDataset(tuple(map(Point, points)))).at(0.0)
    diff = float(np.linalg.norm(cluster_cov - point_cov))
    _report("criterion 07 with one-point classes", diff <= 1e-10,
            f"3 classes of 100 and 12 of one point, Frobenius diff {diff:.2e} (tol 1e-10)")
    assert diff <= 1e-10


def test_criterion_08_sampling_converges_and_hardens_with_dimension():
    start = time.perf_counter()
    cfg = ExperimentConfig(dims=(2, 4, 8, 12), runs=40, rng_seed=0)
    rows = run_convergence_experiment(cfg)

    inversion_report = []
    for dim in cfg.dims:
        meds = [r.median_hellinger for r in rows if r.dim == dim]
        inversions = [
            (meds[k + 1] - meds[k]) / meds[k]
            for k in range(len(meds) - 1)
            if meds[k + 1] > meds[k]
        ]
        inversion_report.append((dim, len(inversions), max(inversions, default=0.0)))

    reach = [samples_to_reach(rows, dim) for dim in cfg.dims]
    reach_filled = [math.inf if r is None else r for r in reach]
    monotone_reach = all(a <= b for a, b in zip(reach_filled, reach_filled[1:]))

    elapsed = time.perf_counter() - start
    ok = (
        all(n <= 1 and worst <= 0.10 for _, n, worst in inversion_report)
        and monotone_reach
        and elapsed < 300.0
    )
    _report(
        "criterion 08 (median Hellinger falls with samples, rises with dim)",
        ok,
        f"inversions per dim {[(d, n, round(w, 3)) for d, n, w in inversion_report]} "
        f"(allow <=1 of <=10%), reach {reach} non-decreasing={monotone_reach}, "
        f"{elapsed:.1f}s (limit 300s)",
    )
    for dim, n_inv, worst in inversion_report:
        assert n_inv <= 1, f"dim {dim}: {n_inv} inversions"
        assert worst <= 0.10, f"dim {dim}: inversion of {worst:.1%}"
    assert monotone_reach
    assert elapsed < 300.0


def test_criterion_09_trace_geometry_through_a_crossing():
    start = time.perf_counter()
    psi = np.diag([0.0, 4.0])
    ds = UncertainDataset(items=(Gaussian([1.0, 0.0], psi), Gaussian([-1.0, 0.0], psi)))
    sched = SweepSchedule(steps=64)
    models, _ = sweep(ds, q=2, schedule=sched)
    traces = factor_traces(models, sched)
    s = sched.s_values()

    leading_axis = [int(np.argmax(np.abs(m.components[:, 0]))) for m in models]
    switches = [k for k in range(1, len(models)) if leading_axis[k] != leading_axis[k - 1]]
    single_switch = len(switches) == 1
    k = switches[0] if switches else -1
    brackets = single_switch and s[k - 1] <= 0.5 <= s[k]
    spans = (
        single_switch
        and abs(abs(models[k - 1].components[0, 0]) - 1.0) <= 1e-10
        and abs(abs(models[k].components[1, 0]) - 1.0) <= 1e-10
    )

    worst_norm = max(
        float(np.linalg.norm(t.points, axis=1).max()) for t in traces
    )

    # Subspace drift from sign alignment, via the sine of the largest
    # principal angle (numerically exact near zero, unlike arccos).
    worst_angle = 0.0
    for step, model in enumerate(models):
        rebuilt = np.stack([t.points[step] for t in traces])
        qa, _ = np.linalg.qr(model.components)
        qb, _ = np.linalg.qr(rebuilt)
        resid = qb - qa @ (qa.T @ qb)
        sines = np.linalg.svd(resid, compute_uv=False)
        worst_angle = max(worst_angle, float(np.arcsin(np.clip(sines.max(), 0.0, 1.0))))

    elapsed = time.perf_counter() - start
    ok = (
        single_switch and brackets and spans
        and worst_norm <= 1.0 + 1e-10 and worst_angle <= 1e-10 and elapsed < 5.0
    )
    _report(
        "criterion 09 (leading component flips at s=0.5; traces stay unit-bounded)",
        ok,
        f"switch at step {k} with s in [{s[k - 1]:.4f}, {s[k]:.4f}] around 0.5, "
        f"max trace norm {worst_norm:.12f} (tol 1+1e-10), alignment angle "
        f"{worst_angle:.2e} rad (tol 1e-10), {elapsed:.2f}s (limit 5s)",
    )
    assert single_switch
    assert brackets
    assert spans
    assert worst_norm <= 1.0 + 1e-10
    assert worst_angle <= 1e-10
    assert elapsed < 5.0


def test_criterion_10_cli_outputs_are_byte_identical(tmp_path, students_path, iris_path):
    env = dict(os.environ)
    env.pop("UAPCA_SEED", None)

    def run_all(into):
        into.mkdir()
        commands = [
            ["project", "--input", str(students_path), "--scale", "1",
             "--out-prefix", str(into / "students")],
            ["project", "--input", str(iris_path), "--points",
             "--aggregate-by", "label", "--out-prefix", str(into / "iris")],
            ["trace", "--input", str(students_path), "--steps", "32",
             "--out-prefix", str(into / "sweep")],
            ["compare-sampling", "--dims", "2,3", "--runs", "3",
             "--samples", "8,32", "--items", "4", "--seed", "5",
             "--out", str(into / "exp.csv")],
        ]
        stdouts = []
        for cmd in commands:
            result = subprocess.run(
                [sys.executable, "-m", "uapca", *cmd],
                capture_output=True, text=True, env=env,
            )
            assert result.returncode == 0, result.stderr
            stdouts.append(result.stdout.replace(str(into), "<out>"))
        return stdouts

    out_a = run_all(tmp_path / "a")
    out_b = run_all(tmp_path / "b")

    files_a = sorted(p.name for p in (tmp_path / "a").iterdir())
    files_b = sorted(p.name for p in (tmp_path / "b").iterdir())
    same_files = files_a == files_b
    mismatched = [
        name for name in files_a
        if (tmp_path / "a" / name).read_bytes() != (tmp_path / "b" / name).read_bytes()
    ] if same_files else files_a
    ok = same_files and not mismatched and out_a == out_b
    _report(
        "criterion 10 (repeated CLI runs are byte-identical)",
        ok,
        f"{len(files_a)} files from 4 commands compared; mismatches: {mismatched or 'none'}",
    )
    assert same_files
    assert mismatched == []
    assert out_a == out_b
    assert len(files_a) == 9  # 2 projections (csv+svg, csv+svg), 4 trace files, 1 experiment csv
