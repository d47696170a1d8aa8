"""Distance between PCA inputs and a Monte-Carlo validation harness.

A PCA fit is fully determined by its mean vector and covariance matrix, so
two fits are compared by interpreting those moments as multivariate normals
and measuring the Hellinger distance between them:

    BC(p, q) = integral sqrt(p(x) q(x)) dx          (Bhattacharyya coefficient)
    H(p, q)  = sqrt(1 - BC(p, q))                   in [0, 1]

For normals BC has a closed form, exp(-D_B) with

    D_B = 1/8 dmu^T S^-1 dmu + 1/2 ln(det S / sqrt(det Sp det Sq)),
    S   = (Sp + Sq) / 2.

The sampling harness draws from every item, pools the samples, and fits
plain PCA moments to them; driving the sample count up makes the pooled
moments converge to the closed-form global covariance, which is the
correctness argument for the accumulation scheme.
"""

from __future__ import annotations

import mmap
import os
import pickle
from dataclasses import dataclass

import numpy as np

from .cov import global_cov
from .items import Gaussian
from .model import UncertainDataset, _frozen_vector, _median, _population_moments, _readonly

_REG_EPS = 1e-12
_TARGET_H = 0.1
DEFAULT_SAMPLE_COUNTS = (16, 64, 256, 1024, 4096)


@dataclass(eq=False, repr=False)
class PcaSummary:
    """Mean and covariance of a PCA input, read as a multivariate normal."""

    mean: np.ndarray
    cov: np.ndarray

    def __post_init__(self):
        m = _frozen_vector(self.mean, "mean")
        k = np.asarray(self.cov, dtype=float)
        if k.shape != (m.size, m.size):
            raise ValueError(f"covariance shape {k.shape} does not match mean length {m.size}")
        if not np.all(np.isfinite(k)):
            raise ValueError("covariance contains non-finite entries")
        self.mean = m
        self.cov = _readonly((k + k.T) / 2.0)


def _logdets(sp: np.ndarray, sq: np.ndarray, sbar: np.ndarray):
    out = []
    for m in (sp, sq, sbar):
        sign, logdet = np.linalg.slogdet(m)
        if sign <= 0.0 or not np.isfinite(logdet):
            return None
        out.append(logdet)
    return out


def bhattacharyya_coeff(p: PcaSummary, q: PcaSummary) -> float:
    """Bhattacharyya coefficient of two Gaussian summaries, in [0, 1].

    Singular covariances are regularized by adding 1e-12 * I to both inputs
    symmetrically; if that still leaves a singular matrix the inputs are
    rejected.
    """
    if p.mean.size != q.mean.size:
        raise ValueError(
            f"summaries have different dimensions: {p.mean.size} vs {q.mean.size}"
        )
    sp, sq = p.cov, q.cov
    sbar = (sp + sq) / 2.0
    dets = _logdets(sp, sq, sbar)
    if dets is None:
        eye = _REG_EPS * np.eye(sp.shape[0])
        sp = sp + eye
        sq = sq + eye
        sbar = (sp + sq) / 2.0
        dets = _logdets(sp, sq, sbar)
        if dets is None:
            raise ValueError("covariances are irrecoverably singular")
    ld_p, ld_q, ld_bar = dets
    dmu = p.mean - q.mean
    maha = float(dmu @ np.linalg.solve(sbar, dmu))
    d_b = 0.125 * maha + 0.5 * (ld_bar - 0.5 * (ld_p + ld_q))
    return float(np.clip(np.exp(-d_b), 0.0, 1.0))


def hellinger(p: PcaSummary, q: PcaSummary) -> float:
    """Hellinger distance sqrt(1 - BC), clamped into [0, 1]."""
    return float(np.sqrt(np.clip(1.0 - bhattacharyya_coeff(p, q), 0.0, 1.0)))


def sampled_pca(
    ds: UncertainDataset,
    samples_per_item: int,
    rng: np.random.Generator,
    *,
    scratch: np.ndarray | None = None,
) -> PcaSummary:
    """Monte-Carlo counterpart of the closed-form global covariance.

    Draws ``samples_per_item`` samples from every item in order straight
    into one pooled (M, D) array, centres it in place, and returns the
    pooled mean and population (1/M) covariance.  Weights are ignored:
    every item contributes the same number of draws.  Deterministic for a
    seeded generator.

    ``scratch`` is an optional contiguous 1-d float64 array of at least
    (len(ds) + 1) * samples_per_item * D entries; the pooled rows and the
    Gaussian normal draws are written into it instead of fresh arrays, so a
    caller making many passes (one buffer per worker) allocates no sample
    arrays per pass.  Its old contents do not matter, the result does not
    alias it, and the result is the same bits with or without it.
    """
    if not isinstance(samples_per_item, (int, np.integer)) or samples_per_item < 1:
        raise ValueError(f"samples_per_item must be a positive integer, got {samples_per_item!r}")
    n, dim = int(samples_per_item), ds.dim
    rows = len(ds) * n
    size = (rows + n) * dim
    if scratch is None:
        scratch = np.empty(size)
    elif (scratch.dtype != np.float64 or scratch.ndim != 1
          or not scratch.flags.c_contiguous or scratch.size < size):
        raise ValueError(
            f"scratch must be a contiguous 1-d float64 array of at least {size} entries"
        )
    pooled = scratch[: rows * dim].reshape(rows, dim)
    draws = scratch[rows * dim : size].reshape(n, dim)
    for i, item in enumerate(ds.items):
        item.sample(n, rng, out=pooled[i * n : (i + 1) * n], draws=draws)
    return PcaSummary(*_population_moments(pooled, overwrite=True))


# ---------------------------------------------------------------------------
# Convergence experiment.


@dataclass(frozen=True)
class ExperimentConfig:
    """Setup for the sampling-convergence experiment.

    Per dimension D a synthetic dataset of ``n_items`` Gaussians is built:
    a base covariance Sigma = Q diag(u) Q^T with u uniform in [0.5, 2] and Q
    a seeded random rotation, item means drawn from N(0, Sigma), and one
    shared item covariance Psi obtained by reversing the elements of Sigma
    (row-major flatten, reverse, reshape), then symmetrizing and projecting
    onto the PSD cone.
    """

    dims: tuple[int, ...] = tuple(range(2, 13))
    sample_counts: tuple[int, ...] = DEFAULT_SAMPLE_COUNTS
    n_items: int = 10
    runs: int = 40
    rng_seed: int = 0

    def __post_init__(self):
        dims = tuple(int(d) for d in self.dims)
        if not dims or any(d < 1 for d in dims):
            raise ValueError(f"dims must be positive integers, got {self.dims!r}")
        counts = tuple(int(c) for c in self.sample_counts)
        if not counts or any(c < 1 for c in counts):
            raise ValueError(f"sample_counts must be positive, got {self.sample_counts!r}")
        if any(b <= a for a, b in zip(counts, counts[1:])):
            raise ValueError("sample_counts must be strictly increasing")
        if int(self.runs) < 1:
            raise ValueError(f"runs must be >= 1, got {self.runs!r}")
        if int(self.n_items) < 2:
            raise ValueError(f"n_items must be >= 2, got {self.n_items!r}")
        if int(self.rng_seed) < 0:
            raise ValueError(f"rng_seed must be >= 0, got {self.rng_seed!r}")
        object.__setattr__(self, "dims", dims)
        object.__setattr__(self, "sample_counts", counts)
        object.__setattr__(self, "runs", int(self.runs))
        object.__setattr__(self, "n_items", int(self.n_items))
        object.__setattr__(self, "rng_seed", int(self.rng_seed))


@dataclass(frozen=True)
class ExperimentRow:
    dim: int
    samples: int
    median_hellinger: float
    runs: int
    seed: int


def _psd_projection(m: np.ndarray) -> np.ndarray:
    sym = (m + m.T) / 2.0
    evals, evecs = np.linalg.eigh(sym)
    out = (evecs * np.clip(evals, 0.0, None)) @ evecs.T
    return (out + out.T) / 2.0


def _experiment_dataset(dim: int, n_items: int, seed: int) -> UncertainDataset:
    rng = np.random.default_rng([seed, dim])
    gauss = rng.standard_normal((dim, dim))
    q_mat, r_mat = np.linalg.qr(gauss)
    q_mat = q_mat * np.sign(np.diag(r_mat))  # canonical rotation, sign-fixed
    spectrum = rng.uniform(0.5, 2.0, size=dim)
    sigma = (q_mat * spectrum) @ q_mat.T
    sigma = (sigma + sigma.T) / 2.0

    evals, evecs = np.linalg.eigh(sigma)
    factor = evecs * np.sqrt(np.clip(evals, 0.0, None))
    means = rng.standard_normal((n_items, dim)) @ factor.T

    psi = _psd_projection(sigma.ravel()[::-1].reshape(dim, dim))
    return UncertainDataset(tuple(Gaussian(mu, psi) for mu in means))


def _worker_count() -> int:
    """The number of CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # platforms without CPU affinity
        return os.cpu_count() or 1


def _share(tasks, seed: int, scratch_size: int, first: int = 0, step: int = 1,
           stop=b"\0") -> list[float]:
    """Hellinger distances of passes ``tasks[first::step]``, in that order.

    Each pass has its own generator, seeded from (seed, dim, count, run), and
    all of them reuse one ``sampled_pca`` scratch buffer.  The list ends
    early, short of its passes, once the first byte of ``stop`` is set.
    """
    scratch = np.empty(scratch_size)
    dists = []
    for dim, count, ds, closed, run in tasks[first::step]:
        if stop[0]:
            break
        rng = np.random.default_rng([seed, dim, count, run])
        dists.append(hellinger(sampled_pca(ds, count, rng, scratch=scratch), closed))
    return dists


def _child(writer, stop, *share) -> None:
    """A forked worker: writes ``_share(*share, stop)`` as float64 bytes (exit
    status 0), or its pickled exception (1), then ends the process by ``os._exit``.
    """
    code = 1
    try:
        try:
            out = np.array(_share(*share, stop), dtype=float).tobytes()
            code = 0
        except BaseException as exc:  # sent to the parent, which raises it
            stop[0] = 1  # the other workers stop after the pass they are in
            try:
                out = pickle.dumps(exc)
            except Exception:  # an exception pickle cannot send, say a local class
                out = pickle.dumps(RuntimeError(
                    f"a sampling worker process raised {type(exc).__name__}"))
        writer.write(out)
        writer.flush()
    finally:
        os._exit(code)


def _forked_shares(tasks, seed: int, scratch_size: int, workers: int) -> list[list[float]]:
    """``_share(tasks, seed, scratch_size, k, workers)`` for each k < workers,
    run by child k, forked from this process: it inherits the tasks and
    sends its result through a pipe of its own.  A failing child sets the
    shared stop byte; the first error is raised here.  Every child is
    reaped before this returns or raises, on an interrupt too.
    """
    readers, pids = [], []
    with mmap.mmap(-1, 1) as stop:  # anonymous and shared with the children
        try:
            for k in range(workers):
                r, w = os.pipe()
                readers.append(open(r, "rb"))
                with open(w, "wb") as writer:  # the parent's copy closes after the fork
                    pid = os.fork()
                    if pid == 0:
                        readers[-1].close()  # so a write fails once the parent stops reading
                        _child(writer, stop, tasks, seed, scratch_size, k, workers)
                    pids.append(pid)
            payloads = [reader.read() for reader in readers]
        finally:
            stop[0] = 1  # on an interrupt, too, no child starts another pass
            for reader in readers:
                reader.close()
            codes = [os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]) for pid in pids]
    for code, payload in zip(codes, payloads):
        if code == 1 and payload:
            raise pickle.loads(payload)
    if any(codes):  # killed by a signal, or ended without a word
        raise ChildProcessError("a sampling worker process was killed "
                                "(by a signal, or for want of memory)")
    return [np.frombuffer(payload).tolist() for payload in payloads]


def run_convergence_experiment(cfg: ExperimentConfig) -> list[ExperimentRow]:
    """Median Hellinger between sampled and closed-form PCA summaries.

    For every (dim, sample count) cell the experiment runs ``cfg.runs``
    independent sampling passes with derived seeds and reports the median
    Hellinger distance to the closed-form summary at s = 1.  Rows come out
    ordered by dim, then sample count.

    The passes run in worker processes forked by ``os.fork``, one per CPU
    this process may use: of W workers, worker k runs passes k, k + W,
    k + 2W, ...  Each pass has its own generator, seeded from (seed, dim,
    count, run), and each worker reuses one ``sampled_pca`` scratch buffer
    across its passes, so the rows are fully determined by the config and
    do not depend on the worker count.  A failing pass stops the other
    workers after the pass they are in, and its exception is raised here; a
    worker killed by a signal raises ``ChildProcessError``.  No worker
    outlives the call.  With one usable CPU, or where ``os.fork`` does not
    exist, the same passes run in this process, one after another.

    OpenBLAS splits the larger products over a thread pool of its own, on
    CPUs the workers already fill.  The CLI gives it one thread by setting
    ``OPENBLAS_NUM_THREADS`` before numpy loads, so its process has no other
    thread when it forks; a library caller should set that variable before
    its own first import of numpy, and should not call this while threads of
    its own hold locks.  The rows are the same bits with one BLAS thread or
    two.
    """
    cells = []
    for dim in cfg.dims:
        ds = _experiment_dataset(dim, cfg.n_items, cfg.rng_seed)
        for item in ds.items:
            item._sampling_factor()  # cached now, so every worker inherits it
        g = global_cov(ds)
        closed = PcaSummary(mean=g.mean, cov=g.at(1.0))
        cells.extend((dim, count, ds, closed) for count in cfg.sample_counts)
    tasks = [(*cell, run) for cell in cells for run in range(cfg.runs)]
    scratch_size = (cfg.n_items + 1) * max(cfg.sample_counts) * max(cfg.dims)
    workers = min(_worker_count(), len(tasks))
    if workers == 1 or not hasattr(os, "fork"):
        dists = _share(tasks, cfg.rng_seed, scratch_size)
    else:
        dists = [0.0] * len(tasks)
        for first, share in enumerate(_forked_shares(tasks, cfg.rng_seed, scratch_size, workers)):
            dists[first::workers] = share
    return [
        ExperimentRow(
            dim=dim,
            samples=count,
            median_hellinger=_median(dists[c * cfg.runs : (c + 1) * cfg.runs]),
            runs=cfg.runs,
            seed=cfg.rng_seed,
        )
        for c, (dim, count, _, _) in enumerate(cells)
    ]


def samples_to_reach(rows: list[ExperimentRow], dim: int, target: float = _TARGET_H) -> int | None:
    """Smallest sample count whose median Hellinger is below target."""
    for row in rows:
        if row.dim == dim and row.median_hellinger < target:
            return row.samples
    return None
