"""Seeded inputs and command lines for the benchmark workloads.

Each workload writes its input files into a work directory and returns a
:class:`Workload`: the CLI argument list, the output files the command must
write, and the generated data in plain numpy form for the oracle.  The CLI
sees only the files.  Floats are written with ``repr`` so the CLI parses
exactly the values the oracle holds.

Coordinates are uncentred with iris-like offsets (axis means of a few
units).  They are neither chosen to avoid nor to expose the precision loss
of one-pass moment formulas at large offsets.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass

import numpy as np

# Sizes are chosen so that one CLI call takes a second or two on a 2-core
# host: long enough that interpreter start-up is a small share, short
# enough that a run holds a dozen calls and its median is steady.
POINTS_ROWS = 10_000
POINTS_DIM = 8
POINTS_CLASSES = 5
ITEMS_COUNT = 1_500
ITEMS_DIM = 8
SWEEP_ITEMS = 300
SWEEP_DIM = 16
SWEEP_STEPS = 128
SAMPLING_RUNS = 10
ITEM_GROUPS = 6


@dataclass
class Workload:
    """One generated workload: CLI argv, expected outputs, oracle data."""

    name: str
    argv: list[str]
    outputs: dict[str, str]
    data: dict


def _rng(seed: int, name: str) -> np.random.Generator:
    return np.random.default_rng([seed, sum(name.encode())])


def _psd(rng: np.random.Generator, dim: int, scale: float) -> np.ndarray:
    a = rng.normal(0.0, scale, (dim, dim))
    m = a @ a.T / dim + 1e-3 * scale * scale * np.eye(dim)
    return (m + m.T) / 2.0


def _cell(rng: np.random.Generator, centre: float):
    """One random cell as (json spec, kind, parameters)."""
    kind = ("number", "interval", "trapezoid", "normal")[int(rng.integers(4))]
    if kind == "number":
        v = float(centre + rng.normal(0.0, 0.3))
        return {"number": v}, kind, (v,)
    if kind == "interval":
        lo = float(centre + rng.normal(0.0, 0.3))
        hi = float(lo + rng.uniform(0.05, 1.5))
        return {"interval": [lo, hi]}, kind, (lo, hi)
    if kind == "trapezoid":
        a = float(centre + rng.normal(0.0, 0.3))
        b, c, d = (float(v) for v in a + np.cumsum(rng.uniform(0.0, 0.8, 3)))
        return {"trapezoid": [a, b, c, d]}, kind, (a, b, c, d)
    m = float(centre + rng.normal(0.0, 0.3))
    sd = float(rng.uniform(0.05, 1.0))
    return {"normal": {"mean": m, "sd": sd}}, kind, (m, sd)


def _mixed_items(rng: np.random.Generator, n: int, dim: int, mvn_share: float,
                 spread: np.ndarray, unc_scale: np.ndarray) -> tuple[list, list]:
    """Items as JSON objects plus their raw description for the oracle.

    ``spread`` scales the item means per axis and ``unc_scale`` the item
    uncertainty per axis; giving them different orderings makes the
    eigenvalue curves of K(s) cross over as s grows.
    """
    offsets = rng.uniform(1.0, 7.0, dim)
    docs, raw = [], []
    for _ in range(n):
        weight = float(rng.uniform(0.5, 3.0))
        label = f"g{int(rng.integers(ITEM_GROUPS)) + 1}"
        centre = offsets + spread * rng.normal(0.0, 1.0, dim)
        if rng.uniform() < mvn_share:
            cov = _psd(rng, dim, 0.5) * np.outer(unc_scale, unc_scale)
            docs.append({"label": label, "weight": weight,
                         "mvn": {"mean": centre.tolist(), "cov": cov.tolist()}})
            raw.append(("mvn", weight, centre, cov))
        else:
            cells = [_cell(rng, float(c)) for c in centre]
            docs.append({"label": label, "weight": weight,
                         "values": [spec for spec, _, _ in cells]})
            raw.append(("values", weight, [(k, p) for _, k, p in cells], None))
    return docs, raw


def _write_dataset(path: str, dim: int, docs: list) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"dims": [f"x{j + 1}" for j in range(dim)], "items": docs}, fh)


def project_points(seed: int, workdir: str, rows: int = POINTS_ROWS) -> Workload:
    rng = _rng(seed, "project-points")
    offsets = rng.uniform(1.0, 7.0, POINTS_DIM)
    class_means = offsets + rng.normal(0.0, 1.5, (POINTS_CLASSES, POINTS_DIM))
    factors = rng.normal(0.0, 0.4, (POINTS_CLASSES, POINTS_DIM, POINTS_DIM))
    labels = rng.integers(POINTS_CLASSES, size=rows)
    z = rng.standard_normal((rows, POINTS_DIM))
    points = class_means[labels] + np.einsum("nij,nj->ni", factors[labels], z)
    path = os.path.join(workdir, "points.csv")
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(f"x{j + 1}" for j in range(POINTS_DIM)) + ",label\n")
        for row, lab in zip(points.tolist(), labels.tolist()):
            fh.write(",".join(map(repr, row)) + f",c{lab + 1}\n")
    prefix = os.path.join(workdir, "out", "points")
    return Workload(
        name="project-points",
        argv=["project", "--points", "--input", path, "--dims", "2", "--scale", "1",
              "--out-prefix", prefix],
        outputs={"projection_csv": prefix + ".projection.csv",
                 "projection_svg": prefix + ".projection.svg"},
        data={"points": points, "labels": [f"c{v + 1}" for v in labels.tolist()],
              "scale": 1.0, "dims": 2},
    )


def project_items(seed: int, workdir: str, count: int = ITEMS_COUNT) -> Workload:
    rng = _rng(seed, "project-items")
    docs, raw = _mixed_items(rng, count, ITEMS_DIM, mvn_share=0.4,
                             spread=np.linspace(2.0, 0.5, ITEMS_DIM),
                             unc_scale=np.full(ITEMS_DIM, 1.0))
    path = os.path.join(workdir, "items.json")
    _write_dataset(path, ITEMS_DIM, docs)
    prefix = os.path.join(workdir, "out", "items")
    return Workload(
        name="project-items",
        argv=["project", "--input", path, "--dims", "2", "--scale", "1",
              "--out-prefix", prefix],
        outputs={"projection_csv": prefix + ".projection.csv",
                 "projection_svg": prefix + ".projection.svg"},
        data={"items": raw, "labels": [d["label"] for d in docs], "scale": 1.0, "dims": 2},
    )


def trace_sweep(seed: int, workdir: str) -> Workload:
    rng = _rng(seed, "trace-sweep")
    # Means spread most along the first axes, uncertainty grows along the
    # last ones: the leading eigenvectors rotate across the sweep.
    ramp = np.linspace(0.0, 1.0, SWEEP_DIM)
    docs, raw = _mixed_items(rng, SWEEP_ITEMS, SWEEP_DIM, mvn_share=0.5,
                             spread=1.6 - 1.2 * ramp, unc_scale=0.4 + 1.2 * ramp)
    path = os.path.join(workdir, "sweep.json")
    _write_dataset(path, SWEEP_DIM, docs)
    prefix = os.path.join(workdir, "out", "sweep")
    return Workload(
        name="trace-sweep",
        argv=["trace", "--input", path, "--steps", str(SWEEP_STEPS), "--out-prefix", prefix],
        outputs={"traces_csv": prefix + ".traces.csv",
                 "eigvals_csv": prefix + ".eigvals.csv",
                 "traces_svg": prefix + ".traces.svg",
                 "eigvals_svg": prefix + ".eigvals.svg"},
        data={"items": raw, "steps": SWEEP_STEPS, "dim": SWEEP_DIM},
    )


def compare_sampling(seed: int, workdir: str, runs: int = SAMPLING_RUNS) -> Workload:
    path = os.path.join(workdir, "out", "convergence.csv")
    return Workload(
        name="compare-sampling",
        argv=["compare-sampling", "--seed", str(seed), "--runs", str(runs), "--out", path],
        outputs={"convergence_csv": path},
        data={"seed": seed, "runs": runs, "dims": list(range(2, 13)),
              "samples": [16, 64, 256, 1024, 4096], "items": 10},
    )


WORKLOADS = {
    "project-points": project_points,
    "project-items": project_items,
    "trace-sweep": trace_sweep,
    "compare-sampling": compare_sampling,
}


def generate(name: str, seed: int, workdir: str, **sizes) -> Workload:
    """Write the inputs of workload ``name`` under ``workdir``."""
    os.makedirs(os.path.join(workdir, "out"), exist_ok=True)
    return WORKLOADS[name](seed, workdir, **sizes)
