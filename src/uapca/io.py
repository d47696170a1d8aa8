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
import re
from collections.abc import Iterator
from dataclasses import astuple, dataclass
from itertools import chain, repeat
from typing import TYPE_CHECKING

import numpy as np

from .cov import CovOptions, global_cov
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

if TYPE_CHECKING:
    from .metrics import ExperimentRow
    from .sensitivity import EigenCurves, FactorTrace, SweepSchedule


class DatasetFormatError(ValueError):
    """A dataset or points file failed validation; the message says where."""


# ---------------------------------------------------------------------------
# JSON dataset files.

# Each cell kind's JSON key, model class and parameter count.  A kind's code
# is its position here, and the keys show in this order in the form error.
_CELL_KINDS = (("number", Number, 1), ("interval", Interval, 2),
               ("trapezoid", Trapezoid, 4), ("normal", Normal1D, 2))
_NUMBER_TYPES = {int, float}  # float() would take true as 1.0 and "1_0" as 10


def _require_utf8(text: str, where: str, what: str) -> None:
    """Reject text UTF-8 cannot encode: the lone surrogates that JSON escapes
    such as "\\ud800" decode to."""
    if not text.isascii():
        try:
            text.encode("utf-8")
        except UnicodeEncodeError:
            raise DatasetFormatError(f"{where}: {what} {text!r} holds a lone surrogate, "
                                     f"which UTF-8 cannot encode") from None


def _cell_number(x) -> float:
    if type(x) not in _NUMBER_TYPES:
        raise ValueError(f"expected a number, got {json.dumps(x)}")
    return float(x)


def _cell_params(spec, i: int, j: int) -> tuple[int, tuple[float, ...]]:
    """The kind code and the parameters of value spec j of item i, checked
    for form only: one known kind, its payload laid out as that kind's."""
    if not isinstance(spec, dict) or len(spec) != 1:
        raise DatasetFormatError(f"item {i}, value {j}: each value must be an object with "
                                 f"exactly one of {tuple(key for key, _, _ in _CELL_KINDS)}")
    (kind, payload), = spec.items()
    try:
        if kind == "number":
            return 0, (_cell_number(payload),)
        if kind == "interval":
            lo, hi = payload
            return 1, (_cell_number(lo), _cell_number(hi))
        if kind == "trapezoid":
            a, b, c, d = payload
            return 2, (_cell_number(a), _cell_number(b), _cell_number(c), _cell_number(d))
        if kind == "normal":
            return 3, (_cell_number(payload["mean"]), _cell_number(payload["sd"]))
    except (TypeError, ValueError, KeyError) as exc:
        raise DatasetFormatError(f"item {i}, value {j}: {exc}") from exc
    raise DatasetFormatError(f"item {i}, value {j}: unknown value kind {kind!r}")


def _cell_json(cell: Scalar1D) -> dict:
    """The value spec of a cell: the inverse of ``_cell_params``."""
    for key, cls, _ in _CELL_KINDS:
        if isinstance(cell, cls):
            params = astuple(cell)
            if key == "normal":
                return {key: {"mean": params[0], "sd": params[1]}}
            return {key: params[0] if key == "number" else list(params)}
    raise TypeError(f"{cell!r} has no dataset-file form")


def _cell(spec, i: int, j: int) -> Scalar1D:
    """The model cell of value spec j of item i; its class checks its rule."""
    code, params = _cell_params(spec, i, j)
    return _CELL_KINDS[code][1](*params)


def _item_fields(obj, index: int, dim: int):
    """An item's (weight, label, values, mvn), checked for structure only:
    exactly one of values (a list of dim cell specs) and mvn (an object with
    'mean' and 'cov') is not None."""
    where = f"item {index}"
    if not isinstance(obj, dict):
        raise DatasetFormatError(f"{where}: expected an object, got {type(obj).__name__}")
    label = obj.get("label")
    if label is not None and not isinstance(label, str):
        raise DatasetFormatError(f"{where}: label must be a string")
    if label is not None:
        _require_utf8(label, where, "label")
    weight = obj.get("weight", 1.0)
    if not isinstance(weight, (int, float)) or isinstance(weight, bool):
        raise DatasetFormatError(f"{where}: weight must be a number")

    has_values = "values" in obj
    if has_values == ("mvn" in obj):
        raise DatasetFormatError(f"{where}: exactly one of 'values' or 'mvn' is required")
    if has_values:
        values = obj["values"]
        if not isinstance(values, list) or len(values) != dim:
            raise DatasetFormatError(
                f"{where}: 'values' must list {dim} entries to match 'dims'"
            )
        return weight, label, values, None
    mvn = obj["mvn"]
    if not isinstance(mvn, dict) or "mean" not in mvn or "cov" not in mvn:
        raise DatasetFormatError(f"{where}: 'mvn' needs 'mean' and 'cov'")
    return weight, label, None, mvn


def _mvn_error(mvn: dict, dim: int) -> str | None:
    """What is wrong with an item's mvn, its mean checked before its cov, or
    None if both are JSON numbers of the shapes 'dims' sets."""
    for key, shape in (("mean", (dim,)), ("cov", (dim, dim))):
        try:
            array = np.asarray(mvn[key], dtype=float)
        except (TypeError, ValueError):
            return f"mvn {key!r} must be an array of numbers with rows of equal length"
        if array.shape != shape:
            return (f"mvn {key!r} has shape {array.shape}, "
                    f"which does not match 'dims' length {dim}")
        # asarray reads true and "1" as 1.0; with the shape right, each row is flat.
        rows = mvn[key] if key == "cov" else [mvn[key]]
        bad = [v for row in rows for v in row if type(v) not in _NUMBER_TYPES]
        if bad:
            return f"mvn {key!r} must be an array of numbers, got {json.dumps(bad[0])}"
    return None


def _pow(x: np.ndarray, k: int) -> np.ndarray:
    """x ** k by CPython's float power (numpy's can differ in the last bit);
    inf where that overflows, which rejects only the cells it enters."""
    powers = []
    for v in x.tolist():
        try:
            powers.append(v ** k)
        except OverflowError:
            powers.append(math.inf)
    return np.array(powers, dtype=float)


def _cell_moments(code: int, params: list[float]):
    """Means, variances and rejected-cell mask of the cells of one kind, given
    their parameters one cell after another, by the ``model`` cells'
    formulas with their bits (each ``**`` through ``_pow``).  A cell is
    rejected if its class would reject its parameters or its mean or
    variance is not finite."""
    kind, _, width = _CELL_KINDS[code]
    p = np.array(params, dtype=float).reshape(-1, width).T
    with np.errstate(all="ignore"):
        bad = ~np.isfinite(p).all(axis=0)
        if kind == "number":
            mean, var = p[0], np.zeros(p.shape[1])
        elif kind == "interval":
            lo, hi = p
            bad |= lo > hi
            mean, var = (lo + hi) / 2.0, _pow(hi - lo, 2) / 12.0
        elif kind == "normal":
            mean, sd = p
            bad |= sd < 0.0
            var = _pow(sd, 2)
        else:
            a, b, c, d = p
            bad |= (a > b) | (b > c) | (c > d)
            span = d + c - b - a
            b, c, d = b - a, c - a, d - a
            first = (d * d + c * d + c * c - b * b) / (3.0 * span)
            second = (_pow(d, 3) + _pow(d, 2) * c + d * _pow(c, 2) + _pow(c, 3)
                      - _pow(b, 3)) / (6.0 * span)
            first[span == 0.0] = second[span == 0.0] = 0.0
            mean, var = a + first, second - first * first
            var[var < 0.0] = 0.0  # max(v, 0.0): NaN and -0.0 stay
        bad |= ~(np.isfinite(mean) & np.isfinite(var))
    return mean, var, bad


def _mvn_table(mvns: list, dim: int):
    """The mvn items' means (G, D) and covariances (G, D, D), one ``np.array``
    each, or None if an item's arrays are not JSON numbers of those shapes."""
    if not mvns:
        return np.empty((0, dim)), np.empty((0, dim, dim))
    means, covs = [m["mean"] for m in mvns], [m["cov"] for m in mvns]
    try:
        table = np.array(means, dtype=float), np.array(covs, dtype=float)
    except (TypeError, ValueError):
        return None
    entries = chain(chain.from_iterable(means), chain.from_iterable(chain.from_iterable(covs)))
    if ((table[0].shape, table[1].shape) != ((len(mvns), dim), (len(mvns), dim, dim))
            or not set(map(type, entries)) <= _NUMBER_TYPES):
        return None
    return table


def load_dataset(path) -> UncertainDataset:
    """Read a JSON dataset file into an UncertainDataset.

    One loop checks each item's structure and reads each cell's form once,
    gathering the cells' parameters by kind.  Each kind is then checked and
    its moments computed as one array, the mvn arrays stacked, and the
    covariances checked as one stack (one ``eigvalsh`` for PSD).  The error
    reported is that of the first bad item or cell in file order; of the
    cells, only the first rejected one is built, and its class words why.
    Cells are built when ``items`` is first read.
    """
    with open(path, "r", encoding="utf-8-sig") as fh:
        try:
            # An integer too long to fit a float reads as inf, not as an int
            # that float() cannot convert.
            doc = json.load(fh, parse_int=lambda t: int(t) if len(t) < 309 else float(t))
        except json.JSONDecodeError as exc:
            raise DatasetFormatError(f"{path}: invalid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise DatasetFormatError(f"{path}: top level must be an object")
    dims = doc.get("dims")
    if not isinstance(dims, list) or not dims or not all(isinstance(d, str) for d in dims):
        raise DatasetFormatError(f"{path}: 'dims' must be a non-empty list of axis names")
    for j, name in enumerate(dims):
        _require_utf8(name, path, f"axis {j} name")
    items_doc = doc.get("items")
    if not isinstance(items_doc, list):
        raise DatasetFormatError(f"{path}: 'items' must be a list")
    if not items_doc:
        raise DatasetFormatError(f"{path}: empty dataset")

    n, dim = len(items_doc), len(dims)
    weights, labels, diag_index, value_lists, full_index, mvns = [], [], [], [], [], []
    codes, params = bytearray(), ([], [], [], [])  # per cell, per kind
    form_error = None  # every item and cell read before it has a good form
    try:
        for i, obj in enumerate(items_doc):
            weight, label, values, mvn = _item_fields(obj, i, dim)
            weights.append(weight)
            labels.append(label)
            if mvn is None:
                diag_index.append(i)
                value_lists.append(values)
                for j, spec in enumerate(values):
                    code, p = _cell_params(spec, i, j)
                    codes.append(code)
                    params[code].extend(p)
            else:
                full_index.append(i)
                mvns.append(mvn)
    except DatasetFormatError as exc:
        form_error = exc

    codes = np.frombuffer(codes, dtype=np.uint8)
    cell_means, cell_vars = np.empty(codes.size), np.empty(codes.size)
    bad = np.empty(codes.size, dtype=bool)
    for code, kind_params in enumerate(params):
        at = codes == code
        cell_means[at], cell_vars[at], bad[at] = _cell_moments(code, kind_params)
    errors = []  # (item, error) of the first rejected cell and of the first bad mvn
    if bad.any():
        row, j = divmod(int(np.argmax(bad)), dim)
        i, spec = diag_index[row], value_lists[row][j]
        try:
            _cell(spec, i, j)
        except ValueError as exc:
            errors.append((i, f"item {i}, value {j}: {exc}"))
        else:
            errors.append((i, f"item {i}, value {j}: the mean or variance of "
                              f"{json.dumps(spec)} is not finite"))
    mvn_table = _mvn_table(mvns, dim)
    if mvn_table is None:
        for i, mvn in zip(full_index, mvns):
            if error := _mvn_error(mvn, dim):
                errors.append((i, f"item {i}: {error}"))
                break
    if errors or form_error:
        raise DatasetFormatError(f"{path}: {min(errors)[1] if errors else form_error}")

    means = np.empty((n, dim))
    means[diag_index], means[full_index] = cell_means.reshape(-1, dim), mvn_table[0]
    use_labels = tuple(
        lab if lab is not None else f"item{i + 1}" for i, lab in enumerate(labels)
    ) if any(lab is not None for lab in labels) else None
    try:
        full_covs = _cov_stack(mvn_table[1],
                               lambda g: f"item {full_index[g]}: Gaussian covariance")
        return UncertainDataset._from_table(
            means, full_index, full_covs, diag_index, cell_vars.reshape(-1, dim),
            cells=lambda r: list(map(_cell, value_lists[r], repeat(diag_index[r]), range(dim))),
            weights=np.array(weights, dtype=float), dim_names=tuple(dims), labels=use_labels,
        )
    except ValueError as exc:
        raise DatasetFormatError(f"{path}: {exc}") from exc


def dataset_to_json(ds: UncertainDataset) -> dict:
    """Serialize a dataset; cluster items come out as moment-equal Gaussians."""
    items = []
    for i, item in enumerate(ds.items):
        obj: dict = {}
        if ds.labels is not None:
            obj["label"] = ds.labels[i]
        obj["weight"] = float(ds.weights[i])
        if isinstance(item, ProductOf1D):
            obj["values"] = [_cell_json(c) for c in item.cells]
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
# The lines a file iterator yields with newline="": LF, CR and CRLF end a line.
_LINES = r"[^\r\n]*(?:\r\n?|\n)|[^\r\n]+"  # compiled on first use, not at import


@dataclass(eq=False, repr=False)
class PointsData:
    """Rows of a points CSV: (n, D) values plus optional row labels."""

    points: np.ndarray
    dim_names: tuple[str, ...]
    labels: tuple[str, ...] | None = None


def load_points(path) -> PointsData:
    """Read a CSV of points: one header row, D numeric columns, optional trailing label.

    The file is read once, as UTF-8 with an optional BOM, and split into
    lines.  Text with no quote, CR or NUL is what ``csv.reader`` splits on LF
    and commas alone, so its rows are split that way; other text, or a line
    longer than the csv field size limit, goes through ``csv.reader``.  One
    ``np.loadtxt`` over the lines reads the numbers of the first D columns.
    If the text holds one of U+001C-U+001F, a row has the wrong field count,
    loadtxt rejects a cell, or a value is not finite, ``_scan_points`` reads
    the lines again with ``float()``: it raises the error for the first bad
    cell ("row r, column 'x': ...", counting non-blank rows) or returns what
    float() reads from cells that loadtxt does not take, such as ``1_0``.
    """
    with open(path, "r", encoding="utf-8-sig", newline="") as fh:
        text = fh.read()
    special = '"' in text or "\r" in text or "\0" in text
    # loadtxt strips U+001C-U+001F around a number; float() rejects them.
    loadable = not any(c in text for c in "\x1c\x1d\x1e\x1f")
    lines = re.findall(_LINES, text) if special else [line for line in text.split("\n") if line]
    del text
    if special or max(map(len, lines), default=0) > csv.field_size_limit():
        rows = _csv_rows(path, lines)
        header_lines, header = next(rows, (0, None))
        widths, lasts = [], []
        for _, row in rows:
            widths.append(len(row))
            lasts.append(row[-1])
    else:
        header_lines, header = 1, (lines[0].split(",") if lines else None)
        widths = [line.count(",") + 1 for line in lines[1:]]
        lasts = [line.rpartition(",")[2] for line in lines[1:]]
    if not widths:
        raise DatasetFormatError(f"{path}: need a header row and at least one data row")
    header = [h.strip() for h in header]
    has_labels = header[-1] == LABEL_COLUMN
    dim = len(header) - 1 if has_labels else len(header)
    if dim < 1:
        raise DatasetFormatError(f"{path}: no numeric columns found")

    points = None
    if loadable and widths.count(len(header)) == len(widths):
        try:
            points = np.loadtxt(lines, delimiter=",", comments=None, skiprows=header_lines,
                                usecols=range(dim), ndmin=2)
        except ValueError:
            pass
    if points is None or points.shape != (len(widths), dim) or not np.isfinite(points).all():
        points = _scan_points(path, lines, header, dim)
    return PointsData(
        points=_readonly(points),
        dim_names=tuple(header[:dim]),
        labels=tuple(map(str.strip, lasts)) if has_labels else None,
    )


def _csv_rows(path, lines: list[str]) -> Iterator[tuple[int, list[str]]]:
    """``csv.reader``'s non-blank rows of lines, each after the number of lines
    read through it; a ``csv.Error`` (such as a field over the size limit) is
    a one-line DatasetFormatError."""
    reader = csv.reader(lines)
    try:
        for row in reader:
            if row:
                yield reader.line_num, row
    except csv.Error as exc:
        raise DatasetFormatError(f"{path}: not readable as CSV: {exc}") from None


def _scan_points(path, lines: list[str], header: list[str], dim: int) -> np.ndarray:
    """The first D cells of every data row of lines, read one by one with ``float()``.

    Raises for the first row with the wrong field count or the first cell
    that is not a finite number, naming its row among the non-blank rows.
    """
    values = []
    rows = _csv_rows(path, lines)
    next(rows)
    for r, (_, row) in enumerate(rows, start=2):
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

    The table is the points array itself, with no covariance block, so its
    ``items`` are ``Point``s.
    """
    return UncertainDataset._from_table(pts.points, dim_names=pts.dim_names, labels=pts.labels)


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


def _require_spread(sigma: np.ndarray, what: str, names) -> None:
    """Raise for the first zero, then the first non-finite, standard deviation,
    naming its axis by its entry in ``names`` when given, else by its index."""
    for bad, rule in ((sigma == 0.0, "has zero variance"),
                      (~np.isfinite(sigma), "has a variance that overflows")):
        if bad.any():
            i = int(np.argmax(bad))
            raise DatasetFormatError(
                f"{what} {i if names is None else repr(names[i])} {rule}; cannot standardize"
            )


def standardize_points(points: np.ndarray, dim_names=None) -> np.ndarray:
    """Z-score columns with the population standard deviation, computed under
    ``np.errstate``; a flat or overflowing column is an error."""
    p = np.asarray(points, dtype=float)
    with np.errstate(over="ignore", invalid="ignore"):
        mean = p.mean(axis=0)
        sigma = p.std(axis=0)
    _require_spread(sigma, "column", dim_names)
    return (p - mean) / sigma


def standardize_dataset(ds: UncertainDataset) -> UncertainDataset:
    """Z-score a dataset using its uncertainty-aware axis variances at s=1."""
    g = global_cov(ds, CovOptions(scale_s=1.0))
    sigma = np.sqrt(np.diag(g.matrix))
    _require_spread(sigma, "axis", ds.dim_names)
    with np.errstate(over="ignore"):  # a non-finite offset fails in rescale
        return ds.rescale(1.0 / sigma, -g.mean / sigma)


# ---------------------------------------------------------------------------
# CSV output, by column.  repr() keeps full float precision and round-trips.

_CSV_ROWS = 4096  # rows per pass, which bounds the texts held at once
# What csv.writer(lineterminator="\n") quotes; CR as from Python 3.13 on.
_NEEDS_QUOTES = re.compile('[,"\r\n]')


def _fields(column) -> list[str]:
    """A column's CSV fields: a numpy array's floats by repr after + 0.0
    folds -0.0, else str, quoted as csv.writer quotes (checked per column)."""
    if isinstance(column, np.ndarray):
        if not column.any():  # NaN counts as non-zero
            return ["0.0"] * len(column)
        return list(map(repr, (column + 0.0).tolist()))
    texts = list(map(str, column))
    if _NEEDS_QUOTES.search("".join(texts)):
        texts = ['"' + t.replace('"', '""') + '"' if _NEEDS_QUOTES.search(t) else t
                 for t in texts]
    return texts


def _write_csv(path, header: list[str], columns: list) -> None:
    """The header row, then one row per entry of the equal-length columns."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for start in range(0, len(columns[0]), _CSV_ROWS):
            fields = [_fields(column[start:start + _CSV_ROWS]) for column in columns]
            fh.write("\n".join(map(",".join, zip(*fields))) + "\n")


def write_traces_csv(
    path, traces: list[FactorTrace], schedule: SweepSchedule, dim_names: tuple[str, ...]
) -> None:
    """Per trace, per step, the + and the - orientation of its point; each
    step's s is formatted once."""
    if traces and traces[0].points.shape[1] != 2:
        raise ValueError("trace CSV output is defined for q = 2")
    steps = len(traces[0].points) if traces else 0
    points = np.array([t.points for t in traces], dtype=float).reshape(len(traces), steps, 2)
    signed = np.stack([points, -points], axis=2).reshape(-1, 2)
    step = np.tile(np.repeat(np.arange(steps), 2), len(traces)).tolist()
    _write_csv(path, ["step", "s", "axis", "orientation", "x", "y"], [
        step,
        list(map(_fields(schedule.s_values()[:steps]).__getitem__, step)),
        list(chain.from_iterable(repeat(dim_names[t.axis_index], 2 * steps) for t in traces)),
        ("+", "-") * (steps * len(traces)),
        signed[:, 0], signed[:, 1],
    ])


def write_eigencurves_csv(path, curves: EigenCurves) -> None:
    """Per step, each eigenvalue with its index; each step's s is formatted once."""
    values = np.asarray(curves.values, dtype=float)
    steps, d = values.shape
    step = np.repeat(np.arange(steps), d).tolist()
    _write_csv(path, ["step", "s", "index", "lambda"], [
        step,
        list(map(_fields(np.asarray(curves.s_values, dtype=float)[:steps]).__getitem__, step)),
        np.tile(np.arange(d), steps).tolist(),
        values.ravel(),
    ])


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
    _write_csv(path, header, [list(labels), *np.hstack([means, covs.reshape(n, q * q)]).T])


def write_experiment_csv(path, rows: list[ExperimentRow]) -> None:
    _write_csv(path, ["dim", "samples", "median_hellinger", "runs", "seed"], [
        [r.dim for r in rows], [r.samples for r in rows],
        np.array([r.median_hellinger for r in rows], dtype=float),
        [r.runs for r in rows], [r.seed for r in rows],
    ])
