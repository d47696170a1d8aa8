"""Points files, label aggregation, standardization, and CSV output.

A points file is CSV with one header row, D numeric columns, and an optional
trailing ``label`` column.  JSON dataset files are read and written by
``dataset_json``; its ``load_dataset``, ``save_dataset`` and
``dataset_to_json`` stay importable from here (PEP 562) for the benchmark
tracer's ``io.load_dataset`` target, and load that module, and ``orjson``,
on first use.

A plain points file is parsed with orjson a block of rows at a time; any
other file, and every error, goes to a cell-by-cell ``float()`` reader.  CSV
floats are written as ``repr`` writes them, all through ``_fields``: a float
array's texts come from orjson, which parsed the input of every command that
writes one; the experiment CSV's medians are Python floats, whose ``str`` is
their ``repr``, so ``compare-sampling`` never imports orjson.
"""

from __future__ import annotations

import csv
import math
import re
from dataclasses import dataclass
from io import StringIO
from itertools import islice
from typing import TYPE_CHECKING

import numpy as np

from .cov import global_cov
from .model import UncertainDataset, _cov_stack, _population_moments, _readonly

if TYPE_CHECKING:
    from .metrics import ExperimentRow
    from .sensitivity import EigenCurves, FactorTrace, SweepSchedule


_JSON_NAMES = frozenset({"load_dataset", "save_dataset", "dataset_to_json"})


def __getattr__(name: str):
    if name not in _JSON_NAMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from . import dataset_json

    value = globals()[name] = getattr(dataset_json, name)
    return value


class DatasetFormatError(ValueError):
    """A dataset or points file failed validation; the message says where."""


def _read_text(path, newline: str | None = None) -> str:
    """The text of a UTF-8 file with an optional BOM; bytes that are not
    UTF-8 are a DatasetFormatError that names the file."""
    with open(path, "r", encoding="utf-8-sig", newline=newline) as fh:
        try:
            return fh.read()
        except UnicodeDecodeError as exc:
            raise DatasetFormatError(f"{path}: not valid UTF-8: {exc}") from None


# ---------------------------------------------------------------------------
# Points files.

LABEL_COLUMN = "label"
_BLOCK = 1 << 15  # bytes of data rows per orjson parse, which bounds the texts held at once
_INT_ZERO = rb"-0(?![.eE\d])"  # orjson reads it as 0, float() as -0.0; compiled on first use


@dataclass(eq=False, repr=False)
class PointsData:
    """Rows of a points CSV: (n, D) values plus optional row labels."""

    points: np.ndarray
    dim_names: tuple[str, ...]
    labels: tuple[str, ...] | None = None


def load_points(path) -> PointsData:
    """Read a CSV of points: one header row, D numeric columns, optional trailing label.

    The file is UTF-8 with an optional BOM.  ``_parse_points`` reads a plain
    file from its bytes with orjson; every other file, and every error, goes
    to ``_scan_points``, which reads it cell by cell with ``float()``.  Both
    read the same values bit for bit.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    return _parse_points(data) or _scan_points(path)


def _parse_points(data: bytes) -> PointsData | None:
    """The points of a plain file, or None for any other file.

    A plain file holds no quote, NUL or lone CR (CRLF line ends are fine),
    so ``csv.reader`` splits its rows on LF and its fields on commas alone.
    Its data rows are cut into blocks of about ``_BLOCK`` bytes that end at
    a newline; each row's label is split off at its last comma, and one
    ``orjson.loads`` reads a block's numeric cells as one list per row.
    orjson reads a JSON number to the float ``float()`` reads, save that it
    reads ``-0`` as int 0.  It refuses spellings that ``float()`` takes, such
    as ``+1``, ``.5``, ``1.``, ``1_0``, ``nan`` or padding other than spaces
    and tabs.  Any of these is None, as are a field-count mismatch, no data
    row, a non-finite value, bytes that are not UTF-8, a line over the csv
    field size limit, a blank line before the header, a ``[`` in a block
    (orjson 3.8 has no depth limit), and ``true`` or ``false`` in the cells.
    """
    import orjson

    if b'"' in data or b"\0" in data:
        return None
    if b"\r" in data:
        data = data.replace(b"\r\n", b"\n")
        if b"\r" in data:
            return None
    start = 3 if data.startswith(b"\xef\xbb\xbf") else 0
    end = data.find(b"\n", start)
    limit = csv.field_size_limit()
    if not start < end <= start + limit:  # also a blank line before the header
        return None
    try:
        header = [h.strip() for h in data[start:end].decode().split(",")]
    except UnicodeDecodeError:
        return None
    has_labels = header[-1] == LABEL_COLUMN
    dim = len(header) - has_labels
    if dim < 1:
        return None
    blocks, labels = [], []
    while end < len(data):
        start = end + 1
        end = data.find(b"\n", start + _BLOCK)
        if end < 0:
            end = len(data)
        block = data[start:end]
        if len(block) > limit or b"[" in block:
            return None
        heads = list(filter(None, block.split(b"\n")))
        if not heads:
            continue
        if has_labels:
            parts = [line.rpartition(b",") for line in heads]
            heads = [part[0] for part in parts]
            try:
                labels += b"\n".join([part[2] for part in parts]).decode().split("\n")
            except UnicodeDecodeError:
                return None
        cells = b"],[".join(heads)
        if b"t" in cells or b"f" in cells:
            return None
        try:
            values = np.array(orjson.loads(b"[[" + cells + b"]]"), dtype=float)
        except (TypeError, ValueError):  # orjson's error, a ragged row, or {}
            return None
        if values.shape != (len(heads), dim) or (
                not values.all() and re.search(_INT_ZERO, cells)):
            return None
        blocks.append(values)
    if not blocks:
        return None
    points = np.concatenate(blocks)
    if not np.isfinite(points).all():
        return None
    return PointsData(_readonly(points), tuple(header[:dim]),
                      tuple(map(str.strip, labels)) if has_labels else None)


def _scan_points(path) -> PointsData:
    """The points of any file, read cell by cell: ``csv.reader`` splits its
    non-blank rows and ``float()`` reads the first D cells of each data row.

    Raises for text that is not UTF-8 or not CSV, for no data row or no
    numeric column, then for the first row with the wrong field count or
    the first cell that is not a finite number, naming its row among the
    non-blank rows.
    """
    reader = csv.reader(StringIO(_read_text(path, newline=""), newline=""))
    try:
        rows = [row for row in reader if row]
    except csv.Error as exc:  # such as a field over the size limit
        raise DatasetFormatError(f"{path}: not readable as CSV: {exc}") from None
    if len(rows) < 2:
        raise DatasetFormatError(f"{path}: need a header row and at least one data row")
    header = [h.strip() for h in rows[0]]
    has_labels = header[-1] == LABEL_COLUMN
    dim = len(header) - has_labels
    if dim < 1:
        raise DatasetFormatError(f"{path}: no numeric columns found")
    values = []
    for r, row in enumerate(rows[1:], start=2):
        if len(row) != len(header):
            raise DatasetFormatError(
                f"{path}: row {r} has {len(row)} fields, expected {len(header)}"
            )
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
            values.append(value)
    return PointsData(_readonly(np.array(values).reshape(-1, dim)), tuple(header[:dim]),
                      tuple(row[-1].strip() for row in rows[1:]) if has_labels else None)


def points_dataset(pts: PointsData) -> UncertainDataset:
    """Each row as a point-mass item (ordinary PCA input).

    The table is the points array itself, with no covariance block, so its
    ``items`` are ``Point``s.
    """
    return UncertainDataset._from_table(pts.points, dim_names=pts.dim_names, labels=pts.labels)


def aggregate_by_label(pts: PointsData) -> UncertainDataset:
    """Fold labeled points into one row per class of the moment table.

    A row holds its class's mean and population (1/n) covariance and is
    weighted by the class count; a one-point class has zero covariance.
    Classes, and the points within each, keep their order of first
    appearance, so every row is ``_population_moments`` of the class points
    bit for bit.  Errors name the first bad class: a non-finite mean before
    a non-finite covariance, then the PSD check of ``_cov_stack``.
    """
    if pts.labels is None:
        raise DatasetFormatError("points file has no label column to aggregate by")
    codes: dict[str, int] = {}
    code = np.array([codes.setdefault(lab, len(codes)) for lab in pts.labels], dtype=np.intp)
    names = tuple(codes)
    counts = np.bincount(code)
    rows = pts.points[np.argsort(code, kind="stable")]
    ends = np.cumsum(counts).tolist()
    moments = [_population_moments(rows[end - n:end]) for n, end in zip(counts.tolist(), ends)]
    d = rows.shape[1]
    means = np.array([m for m, _ in moments]).reshape(-1, d)
    covs = np.array([k for _, k in moments]).reshape(-1, d, d)
    bad_mean = ~np.isfinite(means).all(axis=1)
    bad = bad_mean | ~np.isfinite(covs).all(axis=(1, 2))
    if bad.any():
        i = int(np.argmax(bad))
        what = "mean" if bad_mean[i] else "covariance"
        raise DatasetFormatError(f"class {names[i]!r}: {what} contains non-finite entries")
    covs = _cov_stack(covs, lambda i: f"class {names[i]!r}: covariance")
    return UncertainDataset._from_table(
        means, np.arange(len(names)), covs,
        weights=counts.astype(float), dim_names=pts.dim_names, labels=names,
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
    g = global_cov(ds)
    sigma = np.sqrt(np.diag(g.at(1.0)))
    _require_spread(sigma, "axis", ds.dim_names)
    with np.errstate(over="ignore"):  # a non-finite offset fails in rescale
        return ds.rescale(1.0 / sigma, -g.mean / sigma)


# ---------------------------------------------------------------------------
# CSV output, by column.  repr() keeps full float precision and round-trips.

# Rows per pass, which bounds the texts held at once: a pass's fields, its
# rows and their join, about 0.8 MB for a 2-d projection's six float columns.
_CSV_ROWS = 1024
# What csv.writer(lineterminator="\n") quotes; CR as from Python 3.13 on.
_NEEDS_QUOTES = re.compile('[,"\r\n]')


def _fields(column) -> list[str]:
    """A column's CSV fields.  A numpy array's floats are repr's texts after
    + 0.0 folds -0.0, cut from one ``orjson.dumps``, about ten times faster
    than repr: orjson writes repr's shortest round-trip digits, laid out as
    repr does for 0.0 and for 1e-4 <= |x| < 1e16, and repr formats the rest
    again (orjson writes ``0.00001`` for 1e-05, ``1e16`` for 1e+16 and
    ``null`` for nan and inf).  An all-zero array is one shared ``"0.0"``.
    Any other column is str, quoted as csv.writer quotes (checked per column).
    """
    if isinstance(column, np.ndarray):
        if not column.any():  # NaN counts as non-zero
            return ["0.0"] * len(column)
        import orjson

        column = column + 0.0  # folds -0.0, into a new contiguous array as orjson needs
        texts = orjson.dumps(column, option=orjson.OPT_SERIALIZE_NUMPY)[1:-1].decode().split(",")
        size = np.abs(column)
        redo = np.flatnonzero(~((size >= 1e-4) & (size < 1e16)) & (column != 0.0))
        for i, value in zip(redo.tolist(), column[redo].tolist()):
            texts[i] = repr(value)
        return texts
    texts = list(map(str, column))
    if _NEEDS_QUOTES.search("".join(texts)):
        texts = ['"' + t.replace('"', '""') + '"' if _NEEDS_QUOTES.search(t) else t
                 for t in texts]
    return texts


def _write_csv(path, header: list[str], columns: list, prefixes=None) -> None:
    """The header row, then one row per entry of the equal-length columns,
    each row its columns' ``_fields`` joined by commas.  With prefixes, an
    iterator of texts, a row's next prefix leads the join as its first field.
    A pass's rows are one write, and its last line break another, so that
    the joined text is not copied."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for start in range(0, len(columns[0]), _CSV_ROWS):
            texts = [_fields(column[start:start + _CSV_ROWS]) for column in columns]
            if prefixes is not None:
                texts.insert(0, islice(prefixes, _CSV_ROWS))
            fh.write("\n".join(map(",".join, zip(*texts))))
            fh.write("\n")


def write_traces_csv(
    path, traces: list[FactorTrace], schedule: SweepSchedule, dim_names: tuple[str, ...]
) -> None:
    """Per trace, per step, the + and the - orientation of its point: each
    row is its ``step,s,axis,orientation`` prefix, then x and y."""
    if traces and traces[0].points.shape[1] != 2:
        raise ValueError("trace CSV output is defined for q = 2")
    steps = len(traces[0].points) if traces else 0
    points = np.array([t.points for t in traces], dtype=float).reshape(len(traces), steps, 2)
    signed = np.stack([points, -points], axis=2).reshape(-1, 2)
    heads = [f"{k},{s}" for k, s in enumerate(_fields(schedule.s_values()[:steps]))]
    axes = _fields([dim_names[t.axis_index] for t in traces])
    _write_csv(path, ["step", "s", "axis", "orientation", "x", "y"],
               [signed[:, 0], signed[:, 1]],
               (f"{head},{axis},{sign}" for axis in axes for head in heads for sign in "+-"))


def write_eigencurves_csv(path, curves: EigenCurves) -> None:
    """Per step, each eigenvalue after its ``step,s,index`` prefix."""
    values = np.asarray(curves.values, dtype=float)
    steps, d = values.shape
    heads = [f"{k},{s}" for k, s in
             enumerate(_fields(np.asarray(curves.s_values, dtype=float)[:steps]))]
    _write_csv(path, ["step", "s", "index", "lambda"], [values.ravel()],
               (f"{head},{i}" for head in heads for i in range(d)))


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
    # Views: a pass copies only its own rows of each column.
    _write_csv(path, header, [labels, *means.T, *covs.reshape(n, q * q).T])


def write_experiment_csv(path, rows: list[ExperimentRow]) -> None:
    _write_csv(path, ["dim", "samples", "median_hellinger", "runs", "seed"], [
        [r.dim for r in rows], [r.samples for r in rows], [r.median_hellinger for r in rows],
        [r.runs for r in rows], [r.seed for r in rows],
    ])
