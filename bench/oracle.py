"""Independent numpy oracle for the benchmark's CLI outputs.

Nothing here imports uapca.  The oracle works from the generated data the
workload module holds, with its own moment formulas (the trapezoid moments
are integrated on the support shifted to start at zero), its own centred
accumulation of K(s) = T_means + s^2 T_unc, ``np.linalg.eigh`` in place of
the library's solver, and the documented sign rule: each eigenvector is
flipped so that its largest-magnitude entry is positive, ties going to the
lowest index.

Tolerances are relative to the largest eigenvalue (``REL``) and, for
eigenvectors, divided by the gap to the nearest other eigenvalue, since an
eigenvector is only determined to that accuracy.  A check whose outcome
lies inside the tolerance (a sign rule between two near-equal entries, an
avoided-crossing test on a near tie) accepts either answer.
"""

from __future__ import annotations

import csv
import math
import re
from dataclasses import dataclass, field

import numpy as np

REL = 1e-9
PSD_RTOL = 1e-9
HELLINGER_TARGET = 0.1


@dataclass
class Verdict:
    """Outcome of checking one CLI call."""

    errors: list[str] = field(default_factory=list)
    max_rel_err: float = 0.0

    @property
    def ok(self) -> bool:
        return not self.errors

    def fail(self, message: str) -> None:
        self.errors.append(message)

    def compare(self, what: str, got: float, want: float, scale: float, tol: float) -> None:
        """Record |got - want| / scale and fail when |got - want| > tol."""
        diff = abs(got - want)
        if scale > 0.0:
            self.max_rel_err = max(self.max_rel_err, diff / scale)
        if not diff <= tol:
            self.fail(f"{what}: got {got!r}, expected {want!r} (tolerance {tol:.3g})")


# ---------------------------------------------------------------------------
# Moments and K(s).


def trapezoid_moments(a: float, b: float, c: float, d: float) -> tuple[float, float]:
    """Mean and variance of the trapezoid on [a, d] with plateau [b, c].

    Integrates the piecewise-linear density on u = x - a: a rising ramp of
    width r = b - a, a plateau, and a falling ramp of width w = d - c, with
    height h = 2 / (d + c - b - a).
    """
    r, p0, p1, w = b - a, b - a, c - a, d - c
    span = (d - a) + (c - b)
    if span == 0.0:
        return a, 0.0
    h = 2.0 / span
    e = d - a
    m1 = h * (r * r / 3.0 + (p1 * p1 - p0 * p0) / 2.0 + e * w / 2.0 - w * w / 3.0)
    m2 = h * (r**3 / 4.0 + (p1**3 - p0**3) / 3.0
              + e * e * w / 2.0 - 2.0 * e * w * w / 3.0 + w**3 / 4.0)
    return a + m1, max(m2 - m1 * m1, 0.0)


def _cell_moments(kind: str, params: tuple) -> tuple[float, float]:
    if kind == "number":
        return params[0], 0.0
    if kind == "interval":
        lo, hi = params
        return (lo + hi) / 2.0, (hi - lo) ** 2 / 12.0
    if kind == "normal":
        m, sd = params
        return m, sd * sd
    return trapezoid_moments(*params)


def item_moments(items: list) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Stacked means (N, D), covariances (N, D, D) and weights (N,)."""
    means, covs, weights = [], [], []
    for kind, weight, body, cov in items:
        if kind == "mvn":
            means.append(np.asarray(body, dtype=float))
            covs.append(np.asarray(cov, dtype=float))
        else:
            mv = np.array([_cell_moments(k, p) for k, p in body])
            means.append(mv[:, 0])
            covs.append(np.diag(mv[:, 1]))
        weights.append(weight)
    return np.array(means), np.array(covs), np.array(weights)


def centred_terms(means, covs, weights) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Weighted mean, T_means (centred form) and T_unc."""
    w = weights / weights.sum()
    x_bar = w @ means
    c = means - x_bar
    t_means = (c * w[:, None]).T @ c
    t_unc = np.einsum("n,nij->ij", w, covs) if covs is not None else None
    return x_bar, (t_means + t_means.T) / 2.0, t_unc


@dataclass
class Eigen:
    """Descending eigenpairs with per-column accuracy bounds."""

    values: np.ndarray
    vectors: np.ndarray
    vec_tol: np.ndarray      # bound on the error of each eigenvector
    sign_free: np.ndarray    # the sign rule cannot decide this column


def eigen(k: np.ndarray) -> Eigen:
    vals, vecs = np.linalg.eigh((k + k.T) / 2.0)
    vals, vecs = vals[::-1].copy(), vecs[:, ::-1].copy()
    lam_max = max(float(vals[0]), 0.0)
    if vals[-1] < -PSD_RTOL * lam_max:
        raise ValueError("oracle matrix is not positive semi-definite")
    vals[vals < 0.0] = 0.0
    d = vals.size
    gaps = np.full(d, np.inf)
    if d > 1:
        diff = vals[:-1] - vals[1:]
        gaps[:-1] = diff
        gaps[1:] = np.minimum(gaps[1:], diff)
    with np.errstate(divide="ignore"):
        vec_tol = np.minimum(2.0, REL * max(lam_max, 1e-300) / gaps)
    sign_free = np.zeros(d, dtype=bool)
    for j in range(d):
        mags = np.abs(vecs[:, j])
        i = int(np.argmax(mags))
        if vecs[i, j] < 0.0:
            vecs[:, j] = -vecs[:, j]
        top2 = np.sort(mags)[-2:] if d > 1 else np.array([0.0, mags[0]])
        sign_free[j] = top2[1] - top2[0] <= 2.0 * vec_tol[j] + 1e-12
    return Eigen(vals, vecs, vec_tol, sign_free)


def sweep_s_values(steps: int) -> np.ndarray:
    t = np.linspace(0.0, 1.0, steps)
    s = np.empty(steps)
    s[:-1] = t[:-1] / (1.0 - t[:-1])
    s[-1] = math.inf
    return s


def crossing_decisions(curves: np.ndarray, lam_max: np.ndarray) -> tuple[set, set]:
    """Avoided-crossing flags the oracle is sure of, and the undecided ones.

    A flag is an interior local minimum of the gap between adjacent
    eigenvalue curves that stays positive and dips below a quarter of the
    pair's median gap.  A candidate whose deciding comparisons lie within
    the eigenvalue tolerance is undecided.
    """
    steps, d = curves.shape
    tol = 2.0 * REL * lam_max
    sure, unsure = set(), set()
    for i in range(d - 1):
        gap = curves[:, i] - curves[:, i + 1]
        cutoff = 0.25 * float(np.median(gap))
        cut_tol = 0.25 * float(tol.max())
        for k in range(1, steps - 1):
            t = tol[max(k - 1, 0):k + 2].max()
            margins = (gap[k] - 0.0, cutoff - gap[k], gap[k - 1] - gap[k], gap[k + 1] - gap[k])
            slack = (t, t + cut_tol, 2 * t, 2 * t)
            if all(m > s for m, s in zip(margins, slack)):
                sure.add((k, i))
            elif all(m > -s for m, s in zip(margins, slack)):
                unsure.add((k, i))
    return sure, unsure


# ---------------------------------------------------------------------------
# Expected results per workload.


def expect(wl) -> dict:
    """Everything the checks compare against, computed once per workload."""
    if wl.name == "project-points":
        pts = wl.data["points"]
        x_bar, t_means, _ = centred_terms(pts, None, np.ones(pts.shape[0]))
        return {"x_bar": x_bar, "means": pts, "covs": None,
                "eig": eigen(t_means), "labels": wl.data["labels"]}
    if wl.name == "project-items":
        means, covs, weights = item_moments(wl.data["items"])
        x_bar, t_means, t_unc = centred_terms(means, covs, weights)
        s = wl.data["scale"]
        return {"x_bar": x_bar, "means": means, "covs": covs,
                "eig": eigen(t_means + s * s * t_unc), "labels": wl.data["labels"]}
    if wl.name == "trace-sweep":
        means, covs, weights = item_moments(wl.data["items"])
        _, t_means, t_unc = centred_terms(means, covs, weights)
        s_values = sweep_s_values(wl.data["steps"])
        eigs = [eigen(t_unc if math.isinf(s) else t_means + s * s * t_unc) for s in s_values]
        curves = np.array([e.values for e in eigs])
        sure, unsure = crossing_decisions(curves, curves[:, 0])
        return {"s": s_values, "eigs": eigs, "curves": curves,
                "flags_sure": sure, "flags_unsure": unsure}
    if wl.name == "compare-sampling":
        return {}
    raise ValueError(f"unknown workload {wl.name!r}")


# ---------------------------------------------------------------------------
# Checks.


def _read_csv(path: str, v: Verdict) -> tuple[list[str], list[list[str]]] | None:
    try:
        with open(path, encoding="utf-8", newline="") as fh:
            rows = list(csv.reader(fh))
    except OSError as exc:
        v.fail(f"cannot read {path}: {exc}")
        return None
    if not rows:
        v.fail(f"{path} is empty")
        return None
    return rows[0], rows[1:]


def _floats(rows: list[list[str]], cols: slice, v: Verdict, what: str) -> np.ndarray | None:
    try:
        return np.array([[float(x) for x in row[cols]] for row in rows])
    except ValueError as exc:
        v.fail(f"{what}: {exc}")
        return None


def _check_svg(path: str, v: Verdict) -> str:
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        v.fail(f"cannot read {path}: {exc}")
        return ""
    if not (text.startswith("<?xml") and "<svg" in text and text.endswith("</svg>\n")):
        v.fail(f"{path} is not a complete SVG document")
    return text


def _check_eigenvalue_line(stdout: str, eig: Eigen, v: Verdict) -> None:
    line = next((ln for ln in stdout.splitlines() if ln.startswith("eigenvalues: ")), None)
    if line is None:
        v.fail("stdout has no eigenvalues line")
        return
    got = [float(x) for x in line.split()[1:]]
    if len(got) != eig.values.size:
        v.fail(f"stdout lists {len(got)} eigenvalues, expected {eig.values.size}")
        return
    lam_max = float(eig.values[0])
    for i, (g, want) in enumerate(zip(got, eig.values)):
        v.compare(f"eigenvalue {i + 1}", g, float(want), lam_max, REL * lam_max)


def _check_projection(wl, exp: dict, v: Verdict) -> None:
    q = wl.data["dims"]
    s = wl.data["scale"]
    eig = exp["eig"]
    read = _read_csv(wl.outputs["projection_csv"], v)
    if read is None:
        return
    header, rows = read
    want_header = (["label"] + [f"mean_{i + 1}" for i in range(q)]
                   + [f"cov_{i + 1}_{j + 1}" for i in range(q) for j in range(q)])
    if header != want_header:
        v.fail(f"projection header {header} != {want_header}")
        return
    n = exp["means"].shape[0]
    if len(rows) != n:
        v.fail(f"projection has {len(rows)} rows, expected {n}")
        return
    if [r[0] for r in rows] != exp["labels"]:
        v.fail("projection labels differ from the input labels")
    vals = _floats(rows, slice(1, None), v, "projection")
    if vals is None:
        return
    basis = eig.vectors[:, :q]
    centred = exp["means"] - exp["x_bar"]
    want_mean = centred @ basis
    got_mean = vals[:, :q]
    dist = np.linalg.norm(centred, axis=1) + REL * np.linalg.norm(exp["x_bar"])
    signs = np.ones(q)
    for j in range(q):
        # A column the sign rule cannot decide may come out either way.
        if eig.sign_free[j] and (np.abs(got_mean[:, j] + want_mean[:, j]).max()
                                 < np.abs(got_mean[:, j] - want_mean[:, j]).max()):
            signs[j] = -1.0
        diff = np.abs(got_mean[:, j] - signs[j] * want_mean[:, j])
        tol = dist * (eig.vec_tol[j] + REL)
        for i in np.flatnonzero(diff > tol)[:3]:
            v.fail(f"row {i + 1} mean_{j + 1}: got {got_mean[i, j]!r}, "
                   f"expected {signs[j] * want_mean[i, j]!r}")
        nz = dist > 0.0
        if nz.any():
            v.max_rel_err = max(v.max_rel_err, float((diff[nz] / dist[nz]).max()))
    got_cov = vals[:, q:].reshape(n, q, q)
    if exp["covs"] is None:
        if np.any(got_cov != 0.0):
            v.fail("point items must project to a zero covariance")
        return
    cov_scale = 1.0 if math.isinf(s) else s * s
    oriented = basis * signs
    want_cov = cov_scale * np.einsum("ia,nij,jb->nab", oriented, exp["covs"], oriented)
    scale = cov_scale * np.linalg.norm(exp["covs"], axis=(1, 2))
    for a in range(q):
        for b in range(q):
            diff = np.abs(got_cov[:, a, b] - want_cov[:, a, b])
            tol = scale * (eig.vec_tol[a] + eig.vec_tol[b] + REL)
            for i in np.flatnonzero(diff > tol)[:3]:
                v.fail(f"row {i + 1} cov_{a + 1}_{b + 1}: got {got_cov[i, a, b]!r}, "
                       f"expected {want_cov[i, a, b]!r}")
            nz = scale > 0.0
            if nz.any():
                v.max_rel_err = max(v.max_rel_err, float((diff[nz] / scale[nz]).max()))


def _check_project(wl, exp: dict, stdout: str, v: Verdict) -> None:
    _check_eigenvalue_line(stdout, exp["eig"], v)
    _check_projection(wl, exp, v)
    svg = _check_svg(wl.outputs["projection_svg"], v)
    n = exp["means"].shape[0]
    if svg and svg.count("<circle") < n:
        v.fail(f"projection SVG draws {svg.count('<circle')} dots for {n} items")
    if svg and exp["covs"] is not None:
        outlined = int(np.count_nonzero(np.abs(exp["covs"]).max(axis=(1, 2)) > 0.0))
        if svg.count("<polyline") != 2 * outlined:
            v.fail(f"projection SVG draws {svg.count('<polyline')} ellipses, "
                   f"expected {2 * outlined}")


_FLAG = re.compile(r"avoided crossing flagged between components (\d+) and (\d+) "
                   r"near s=\S+ \(step (\d+)\)")


def _check_trace(wl, exp: dict, stdout: str, v: Verdict) -> None:
    steps, d = exp["curves"].shape
    s_values = exp["s"]
    read = _read_csv(wl.outputs["eigvals_csv"], v)
    if read is not None:
        header, rows = read
        if header != ["step", "s", "index", "lambda"] or len(rows) != steps * d:
            v.fail(f"eigvals CSV has header {header} and {len(rows)} rows, "
                   f"expected {steps * d} rows")
        else:
            idx = [(int(r[0]), int(r[2])) for r in rows]
            if idx != [(k, i) for k in range(steps) for i in range(d)]:
                v.fail("eigvals CSV rows are not ordered by step, then index")
            vals = _floats(rows, slice(1, None, 2), v, "eigvals")
            if vals is not None:
                s_got = vals[:, 0].reshape(steps, d)[:, 0]
                if not np.allclose(s_got, s_values, rtol=1e-12, atol=0.0):
                    v.fail("eigvals CSV s column differs from the sweep grid")
                lam = vals[:, 1].reshape(steps, d)
                lam_max = exp["curves"][:, 0]
                diff = np.abs(lam - exp["curves"])
                bad = np.argwhere(diff > REL * lam_max[:, None])
                for k, i in bad[:3]:
                    v.fail(f"step {k} lambda {i}: got {lam[k, i]!r}, "
                           f"expected {exp['curves'][k, i]!r}")
                pos = lam_max > 0.0
                v.max_rel_err = max(v.max_rel_err,
                                    float((diff[pos] / lam_max[pos, None]).max()))

    read = _read_csv(wl.outputs["traces_csv"], v)
    if read is not None:
        header, rows = read
        if header != ["step", "s", "axis", "orientation", "x", "y"] or len(rows) != d * steps * 2:
            v.fail(f"traces CSV has header {header} and {len(rows)} rows, "
                   f"expected {d * steps * 2} rows")
        else:
            _check_traces(rows, exp, v)

    flags = {(int(m[3]), int(m[1]) - 1) for m in _FLAG.finditer(stdout)}
    if any(int(m[2]) != int(m[1]) + 1 for m in _FLAG.finditer(stdout)):
        v.fail("a flag names components that are not adjacent")
    if not flags and "no avoided crossings flagged" not in stdout:
        v.fail("stdout reports neither flags nor their absence")
    for k, i in sorted(exp["flags_sure"] - flags):
        v.fail(f"missing avoided-crossing flag at step {k}, components {i + 1}/{i + 2}")
    for k, i in sorted(flags - exp["flags_sure"] - exp["flags_unsure"]):
        v.fail(f"spurious avoided-crossing flag at step {k}, components {i + 1}/{i + 2}")
    for key in ("traces_svg", "eigvals_svg"):
        _check_svg(wl.outputs[key], v)


def _check_traces(rows: list[list[str]], exp: dict, v: Verdict) -> None:
    steps, d = exp["curves"].shape
    xy = _floats(rows, slice(4, 6), v, "traces")
    if xy is None:
        return
    # Rows run axis by axis, step by step, "+" then "-".
    xy = xy.reshape(d, steps, 2, 2)
    if ([r[3] for r in rows] != ["+", "-"] * (len(rows) // 2)
            or np.any(xy[:, :, 1] != -xy[:, :, 0])):
        v.fail("traces CSV '-' rows are not the negation of the '+' rows")
    comp = xy[:, :, 0, :].transpose(1, 0, 2)          # (steps, D, q)
    for k, e in enumerate(exp["eigs"]):
        for j in range(2):
            got, want = comp[k, :, j], e.vectors[:, j]
            # Later steps carry the alignment flips, step 0 the sign rule.
            signs = (1.0,) if k == 0 and not e.sign_free[j] else (1.0, -1.0)
            err = min(float(np.abs(got - sg * want).max()) for sg in signs)
            v.max_rel_err = max(v.max_rel_err, err)
            if err > e.vec_tol[j] + REL:
                v.fail(f"trace step {k} component {j + 1} is off by {err:.3g}")
            if k and float(comp[k - 1, :, j] @ got) < -1e-12:
                v.fail(f"trace step {k} component {j + 1} is not aligned with step {k - 1}")


def _check_sampling(wl, stdout: str, v: Verdict) -> None:
    read = _read_csv(wl.outputs["convergence_csv"], v)
    if read is None:
        return
    header, rows = read
    dims, samples = wl.data["dims"], wl.data["samples"]
    if header != ["dim", "samples", "median_hellinger", "runs", "seed"]:
        v.fail(f"convergence header {header}")
        return
    keys = [(int(r[0]), int(r[1])) for r in rows]
    if keys != [(dm, c) for dm in dims for c in samples]:
        v.fail("convergence rows are not one per (dim, samples) in order")
        return
    if any(int(r[3]) != wl.data["runs"] or int(r[4]) != wl.data["seed"] for r in rows):
        v.fail("convergence rows carry the wrong runs or seed")
    h = np.array([float(r[2]) for r in rows]).reshape(len(dims), len(samples))
    if np.any(~np.isfinite(h)) or np.any(h < 0.0) or np.any(h > 1.0):
        v.fail("median Hellinger outside [0, 1]")
        return
    for row, dm in zip(h, dims):
        reached = np.flatnonzero(row < HELLINGER_TARGET)
        if reached.size == 0:
            v.fail(f"dim {dm} never reaches median Hellinger < {HELLINGER_TARGET}")
            continue
        line = f"dim {dm}: median Hellinger < 0.1 from {samples[reached[0]]} samples per item"
        if line not in stdout.splitlines():
            v.fail(f"stdout lacks {line!r}")


def check(wl, exp: dict, exit_code: int, stdout: str) -> Verdict:
    """Check one CLI call of workload ``wl`` against the oracle results."""
    v = Verdict()
    if exit_code != 0:
        v.fail(f"exit code {exit_code}")
        return v
    try:
        if wl.name in ("project-points", "project-items"):
            _check_project(wl, exp, stdout, v)
        elif wl.name == "trace-sweep":
            _check_trace(wl, exp, stdout, v)
        else:
            _check_sampling(wl, stdout, v)
    except (ValueError, IndexError) as exc:
        v.fail(f"malformed output: {exc!r}")
    return v
