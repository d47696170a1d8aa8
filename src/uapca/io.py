"""Dataset files, label aggregation, standardization, and CSV output.

Two input formats are supported.  A dataset file is JSON:

    {
      "dims": ["M1", "M2"],
      "items": [
        {"label": "Tom", "weight": 1.0,
         "values": [{"number": 15}, {"interval": [10, 12]}]},
        {"label": "cluster", "mvn": {"mean": [0, 0], "cov": [[1, 0], [0, 1]]}}
      ]
    }

with cell forms {"number": x}, {"interval": [a, b]}, {"trapezoid":
[a, b, c, d]}, and {"normal": {"mean": m, "sd": s}}.  A points file is CSV
with one header row, D numeric columns, and an optional trailing ``label``
column.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass

import numpy as np

from .cov import CovOptions, global_cov
from .metrics import ExperimentRow
from .model import (
    Distribution,
    EmpiricalCluster,
    Gaussian,
    Interval,
    Normal1D,
    Number,
    Point,
    ProductOf1D,
    Scalar1D,
    Trapezoid,
    UncertainDataset,
    _cov_stack,
    _population_moments,
    _readonly,
)
from .sensitivity import EigenCurves, FactorTrace, SweepSchedule


class DatasetFormatError(ValueError):
    """A dataset or points file failed validation; the message says where."""


# ---------------------------------------------------------------------------
# JSON dataset files.

_CELL_KEYS = ("number", "interval", "trapezoid", "normal")


def _cell_number(x) -> float:
    if isinstance(x, bool):  # float() would take true as 1.0
        raise ValueError(f"expected a number, got {json.dumps(x)}")
    return float(x)


def _parse_cell(spec, where: str) -> tuple[Scalar1D, float, float]:
    """The cell of a value spec with its mean and variance, both finite."""
    if not isinstance(spec, dict) or len(spec) != 1:
        raise DatasetFormatError(
            f"{where}: each value must be an object with exactly one of {_CELL_KEYS}"
        )
    (kind, payload), = spec.items()
    try:
        if kind == "number":
            cell: Scalar1D = Number(_cell_number(payload))
        elif kind == "interval":
            lo, hi = payload
            cell = Interval(_cell_number(lo), _cell_number(hi))
        elif kind == "trapezoid":
            a, b, c, d = payload
            cell = Trapezoid(*map(_cell_number, (a, b, c, d)))
        elif kind == "normal":
            cell = Normal1D(_cell_number(payload["mean"]), _cell_number(payload["sd"]))
        else:
            raise DatasetFormatError(f"{where}: unknown value kind {kind!r}")
        mean, var = cell.mean(), cell.variance()
    except DatasetFormatError:
        raise
    except OverflowError:
        mean = var = math.inf
    except (TypeError, ValueError, KeyError) as exc:
        raise DatasetFormatError(f"{where}: {exc}") from exc
    if not (math.isfinite(mean) and math.isfinite(var)):
        raise DatasetFormatError(
            f"{where}: the mean or variance of {json.dumps(spec)} is not finite"
        )
    return cell, mean, var


def _parse_item(obj, index: int, dim: int):
    """One item as (weight, label, mean, spread, cells): a values item has the
    variances of its cells as spread, an mvn item its covariance (checked
    for shape only) and cells None."""
    where = f"item {index}"
    if not isinstance(obj, dict):
        raise DatasetFormatError(f"{where}: expected an object, got {type(obj).__name__}")
    label = obj.get("label")
    if label is not None and not isinstance(label, str):
        raise DatasetFormatError(f"{where}: label must be a string")
    weight = obj.get("weight", 1.0)
    if not isinstance(weight, (int, float)) or isinstance(weight, bool):
        raise DatasetFormatError(f"{where}: weight must be a number")

    has_values = "values" in obj
    has_mvn = "mvn" in obj
    if has_values == has_mvn:
        raise DatasetFormatError(f"{where}: exactly one of 'values' or 'mvn' is required")
    if has_values:
        values = obj["values"]
        if not isinstance(values, list) or len(values) != dim:
            raise DatasetFormatError(
                f"{where}: 'values' must list {dim} entries to match 'dims'"
            )
        cells, means, variances = zip(
            *(_parse_cell(spec, f"{where}, value {j}") for j, spec in enumerate(values))
        )
        return float(weight), label, means, variances, cells
    mvn = obj["mvn"]
    if not isinstance(mvn, dict) or "mean" not in mvn or "cov" not in mvn:
        raise DatasetFormatError(f"{where}: 'mvn' needs 'mean' and 'cov'")
    arrays = []
    for key, shape in (("mean", (dim,)), ("cov", (dim, dim))):
        try:
            arrays.append(np.asarray(mvn[key], dtype=float))
        except (TypeError, ValueError) as exc:
            raise DatasetFormatError(
                f"{where}: mvn {key!r} must be an array of numbers with rows of equal length"
            ) from exc
        if arrays[-1].shape != shape:
            raise DatasetFormatError(f"{where}: mvn {key!r} has shape {arrays[-1].shape}, "
                                     f"which does not match 'dims' length {dim}")
    return float(weight), label, arrays[0], arrays[1], None


def load_dataset(path) -> UncertainDataset:
    """Read a JSON dataset file into an UncertainDataset.

    Items are parsed one by one into rows of the moment table: a values
    item gives its cells' means and variances, an mvn item its mean and
    covariance.  The mvn covariances are then checked as one stack
    (finite, symmetric, PSD with one ``eigvalsh``), and an error names the
    item.  The Distribution items are built only when ``items`` is read.
    """
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise DatasetFormatError(f"{path}: invalid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise DatasetFormatError(f"{path}: top level must be an object")
    dims = doc.get("dims")
    if not isinstance(dims, list) or not dims or not all(isinstance(d, str) for d in dims):
        raise DatasetFormatError(f"{path}: 'dims' must be a non-empty list of axis names")
    items_doc = doc.get("items")
    if not isinstance(items_doc, list):
        raise DatasetFormatError(f"{path}: 'items' must be a list")
    if not items_doc:
        raise DatasetFormatError(f"{path}: empty dataset")

    n, dim = len(items_doc), len(dims)
    # Rows go straight into arrays, so no per-item tuples of floats stay alive.
    means, variances = np.empty((n, dim)), np.empty((n, dim))
    weights, labels, cells, full_index, full_covs, diag_index = [], [], [], [], [], []
    for i, obj in enumerate(items_doc):
        try:
            weight, label, means[i], spread, item_cells = _parse_item(obj, i, dim)
        except DatasetFormatError as exc:
            raise DatasetFormatError(f"{path}: {exc}") from exc
        weights.append(weight)
        labels.append(label)
        cells.append(item_cells)
        if item_cells is None:
            full_index.append(i)
            full_covs.append(spread)
        else:
            diag_index.append(i)
            variances[i] = spread
    full_covs = np.array(full_covs).reshape(-1, dim, dim)

    def build_items():
        covs = iter(full_covs)
        return [ProductOf1D(c) if c else Gaussian(m, next(covs))
                for c, m in zip(cells, table.means())]

    use_labels = tuple(
        lab if lab is not None else f"item{i + 1}" for i, lab in enumerate(labels)
    ) if any(lab is not None for lab in labels) else None
    try:
        full_covs = _cov_stack(full_covs, lambda g: f"item {full_index[g]}: Gaussian covariance")
        table = UncertainDataset._from_table(
            means, full_index, full_covs, diag_index, variances[diag_index],
            items=build_items, weights=np.array(weights), dim_names=tuple(dims),
            labels=use_labels,
        )
    except ValueError as exc:
        raise DatasetFormatError(f"{path}: {exc}") from exc
    return table


def dataset_to_json(ds: UncertainDataset) -> dict:
    """Serialize a dataset; cluster items come out as moment-equal Gaussians."""
    items = []
    for i, item in enumerate(ds.items):
        obj: dict = {}
        if ds.labels is not None:
            obj["label"] = ds.labels[i]
        obj["weight"] = float(ds.weights[i])
        if isinstance(item, ProductOf1D):
            obj["values"] = [c.to_json() for c in item.cells]
        elif isinstance(item, Point):
            obj["values"] = [{"number": float(v)} for v in item.mean()]
        else:
            obj["mvn"] = {
                "mean": item.mean().tolist(),
                "cov": item.cov().tolist(),
            }
        items.append(obj)
    return {"dims": list(ds.dim_names), "items": items}


def save_dataset(ds: UncertainDataset, path) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(dataset_to_json(ds), fh, indent=2)
        fh.write("\n")


# ---------------------------------------------------------------------------
# Points files.

LABEL_COLUMN = "label"


@dataclass(frozen=True)
class PointsData:
    """Rows of a points CSV: (n, D) values plus optional row labels."""

    points: np.ndarray
    dim_names: tuple[str, ...]
    labels: tuple[str, ...] | None = None


def load_points(path) -> PointsData:
    """Read a CSV of points: one header row, D numeric columns, optional trailing label.

    One csv pass reads the header, the field count of each non-blank row and
    the labels; one ``np.loadtxt`` over the first D columns reads the
    numbers.  If a row has the wrong field count, loadtxt rejects a cell, or
    a value is not finite, ``_scan_points`` reads the file again cell by
    cell with ``float()``: it raises the error for the first bad cell ("row
    r, column 'x': ...", counting non-blank rows) or returns what float()
    reads from cells that loadtxt does not take, such as ``1_0``.
    """
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        header = next(filter(None, reader), None)
        header_lines = reader.line_num
        rows = [(len(row), row[-1]) for row in reader if row]
    if not rows:
        raise DatasetFormatError(f"{path}: need a header row and at least one data row")
    header = [h.strip() for h in header]
    has_labels = header[-1] == LABEL_COLUMN
    dim = len(header) - 1 if has_labels else len(header)
    if dim < 1:
        raise DatasetFormatError(f"{path}: no numeric columns found")

    points = None
    if all(width == len(header) for width, _ in rows):
        try:
            points = np.loadtxt(path, delimiter=",", comments=None, skiprows=header_lines,
                                usecols=range(dim), ndmin=2, encoding="utf-8")
        except ValueError:
            pass
    if points is None or points.shape != (len(rows), dim) or not np.isfinite(points).all():
        points = _scan_points(path, header, dim)
    return PointsData(
        points=_readonly(points),
        dim_names=tuple(header[:dim]),
        labels=tuple(label.strip() for _, label in rows) if has_labels else None,
    )


def _scan_points(path, header: list[str], dim: int) -> np.ndarray:
    """The first D cells of every data row, read one by one with ``float()``.

    Raises for the first row with the wrong field count or the first cell
    that is not a finite number, naming its row among the non-blank rows.
    """
    values = []
    with open(path, "r", encoding="utf-8", newline="") as fh:
        rows = filter(None, csv.reader(fh))
        next(rows)
        for r, row in enumerate(rows, start=2):
            if len(row) != len(header):
                raise DatasetFormatError(
                    f"{path}: row {r} has {len(row)} fields, expected {len(header)}"
                )
            values.append([])
            for c in range(dim):
                try:
                    value = float(row[c])
                except ValueError as exc:
                    raise DatasetFormatError(
                        f"{path}: row {r}, column {header[c]!r}: "
                        f"could not parse {row[c]!r} as a number"
                    ) from exc
                if not math.isfinite(value):
                    raise DatasetFormatError(
                        f"{path}: row {r}, column {header[c]!r}: non-finite value"
                    )
                values[-1].append(value)
    return np.array(values).reshape(-1, dim)


def points_dataset(pts: PointsData) -> UncertainDataset:
    """Each row as a point-mass item (ordinary PCA input).

    The table is the points array itself, with no covariance block; the
    ``Point`` items are built only when ``items`` is first read.
    """
    return UncertainDataset._from_table(
        pts.points, items=lambda: map(Point, pts.points),
        dim_names=pts.dim_names, labels=pts.labels,
    )


def aggregate_by_label(pts: PointsData, kind: str = "gaussian") -> UncertainDataset:
    """Fold labeled points into one distribution item per class.

    kind="gaussian" summarizes each class by its mean and population (1/n)
    covariance; kind="empirical" keeps the class points as a resampling
    cluster.  Item weights are the class counts, in order of first
    appearance.
    """
    if kind not in ("gaussian", "empirical"):
        raise ValueError(f"kind must be 'gaussian' or 'empirical', got {kind!r}")
    if pts.labels is None:
        raise DatasetFormatError("points file has no label column to aggregate by")
    order: list[str] = []
    groups: dict[str, list[int]] = {}
    for i, lab in enumerate(pts.labels):
        if lab not in groups:
            order.append(lab)
            groups[lab] = []
        groups[lab].append(i)

    items: list[Distribution] = []
    weights: list[float] = []
    for lab in order:
        rows = pts.points[groups[lab]]
        if kind == "gaussian":
            if rows.shape[0] < 2:
                raise DatasetFormatError(
                    f"class {lab!r} has fewer than 2 points; "
                    f"gaussian aggregation needs at least 2"
                )
            items.append(Gaussian(*_population_moments(rows)))
        else:
            items.append(EmpiricalCluster(rows))
        weights.append(float(rows.shape[0]))
    return UncertainDataset(
        tuple(items),
        weights=np.array(weights),
        dim_names=pts.dim_names,
        labels=tuple(order),
    )


# ---------------------------------------------------------------------------
# Standardization.


def standardize_points(points: np.ndarray, dim_names=None) -> np.ndarray:
    """Z-score columns with the population standard deviation.

    A zero-variance column is an error that names the column by its entry
    in ``dim_names`` when given, else by its index.
    """
    p = np.asarray(points, dtype=float)
    mean = p.mean(axis=0)
    sigma = p.std(axis=0)
    bad = np.flatnonzero(sigma == 0.0)
    if bad.size:
        col = int(bad[0])
        raise DatasetFormatError(
            f"column {col if dim_names is None else repr(dim_names[col])} "
            f"has zero variance; cannot standardize"
        )
    return (p - mean) / sigma


def standardize_dataset(ds: UncertainDataset) -> UncertainDataset:
    """Z-score a dataset using its uncertainty-aware axis variances at s=1."""
    g = global_cov(ds, CovOptions(scale_s=1.0))
    var = np.diag(g.matrix).copy()
    bad = np.flatnonzero(var <= 0.0)
    if bad.size:
        raise DatasetFormatError(
            f"axis {ds.dim_names[int(bad[0])]!r} has zero variance; cannot standardize"
        )
    sigma = np.sqrt(var)
    return ds.rescale(1.0 / sigma, -g.mean / sigma)


# ---------------------------------------------------------------------------
# CSV output.  repr() keeps full float precision and round-trips exactly.


def _write_csv(path, header: list[str], rows) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(row) + "\n")


def _num(x: float) -> str:
    # + 0.0 folds -0.0 into 0.0 without touching any other value.
    return repr(float(x) + 0.0)


def write_traces_csv(
    path, traces: list[FactorTrace], schedule: SweepSchedule, dim_names: tuple[str, ...]
) -> None:
    if traces and traces[0].points.shape[1] != 2:
        raise ValueError("trace CSV output is defined for q = 2")
    s_values = schedule.s_values()
    rows = []
    for trace in traces:
        name = dim_names[trace.axis_index]
        for k in range(trace.points.shape[0]):
            for orientation, sign in (("+", 1.0), ("-", -1.0)):
                x, y = sign * trace.points[k]
                rows.append(
                    [str(k), _num(s_values[k]), name, orientation, _num(x), _num(y)]
                )
    _write_csv(path, ["step", "s", "axis", "orientation", "x", "y"], rows)


def write_eigencurves_csv(path, curves: EigenCurves) -> None:
    rows = []
    for k in range(curves.values.shape[0]):
        for i in range(curves.values.shape[1]):
            rows.append(
                [str(k), _num(curves.s_values[k]), str(i), _num(curves.values[k, i])]
            )
    _write_csv(path, ["step", "s", "index", "lambda"], rows)


def write_projection_csv(path, labels: list[str], means, covs) -> None:
    """One row per item: label, then its row of means (N, q) and of covs (N, q, q)."""
    if not len(labels):
        raise ValueError("nothing to write")
    n, q = means.shape
    if len(labels) != n or covs.shape != (n, q, q):
        raise ValueError(f"{len(labels)} labels, means {means.shape}, covs {covs.shape}")
    header = (
        ["label"]
        + [f"mean_{i + 1}" for i in range(q)]
        + [f"cov_{i + 1}_{j + 1}" for i in range(q) for j in range(q)]
    )
    # + 0.0 folds -0.0 into 0.0, as _num does, over the whole table at once.
    values = (np.hstack([means, covs.reshape(n, q * q)]) + 0.0).tolist()
    _write_csv(path, header, ([label, *map(repr, row)] for label, row in zip(labels, values)))


def write_experiment_csv(path, rows: list[ExperimentRow]) -> None:
    _write_csv(
        path,
        ["dim", "samples", "median_hellinger", "runs", "seed"],
        (
            [str(r.dim), str(r.samples), _num(r.median_hellinger), str(r.runs), str(r.seed)]
            for r in rows
        ),
    )
