"""JSON dataset files: read, check and write them.

A dataset file is JSON:

    {
      "dims": ["M1", "M2"],
      "items": [
        {"label": "Tom", "weight": 1.0,
         "values": [{"number": 15}, {"interval": [10, 12]}]},
        {"label": "cluster", "mvn": {"mean": [0, 0], "cov": [[1, 0], [0, 1]]}}
      ]
    }

with cell forms {"number": x}, {"interval": [a, b]}, {"trapezoid":
[a, b, c, d]}, and {"normal": {"mean": m, "sd": s}}.  Reading a file loads
no item class, even to word a rejected cell's error (the cells' rules are in
``model``): cells are built, and ``items`` loaded, when ``items`` is read.
"""

from __future__ import annotations

import contextlib
import functools
import gc
import json
from dataclasses import astuple
from itertools import accumulate, chain
from typing import TYPE_CHECKING

import numpy as np
import orjson

from .io import DatasetFormatError, _read_text
from .model import _CELL_KINDS, UncertainDataset, _cell_moments, _cell_rule_error, _cov_stack

if TYPE_CHECKING:
    from .items import Scalar1D

_NUMBER_TYPES = {int, float}  # float() would take true as 1.0 and "1_0" as 10
_MAX_NESTING = 1024  # json reads deeper text: orjson 3.8 would overflow the C stack


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
                                 f"exactly one of {tuple(kind[0] for kind in _CELL_KINDS)}")
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


@functools.cache  # one import for all the cells of a dataset
def _cell_classes() -> tuple[type[Scalar1D], ...]:
    """The ``items`` class of each cell kind, by kind code."""
    from .items import Interval, Normal1D, Number, Trapezoid

    return Number, Interval, Trapezoid, Normal1D


def _cell_json(cell: Scalar1D) -> dict:
    """The value spec of a cell: the inverse of ``_cell_params``.  A parameter
    whose type is not exactly int or float, such as a bool or a numpy
    scalar, is written as its float()."""
    if not isinstance(cell, _cell_classes()):
        raise TypeError(f"{cell!r} has no dataset-file form")
    key = _CELL_KINDS[cell._code][0]
    params = [v if type(v) in (int, float) else float(v) for v in astuple(cell)]
    if key == "normal":
        return {key: {"mean": params[0], "sd": params[1]}}
    return {key: params[0] if key == "number" else params}


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
    """Read a JSON dataset file into an UncertainDataset.  orjson parses it;
    ``json`` reads again, and words the error of, what orjson refuses (NaN,
    lone surrogates, bytes that are not UTF-8), text nested deeper than
    ``_MAX_NESTING`` and a file with an error: orjson reads an integer past
    64 bits as a float, which prints otherwise.

    The cyclic collector is paused while the parsed document lives: a
    document holds no reference cycle, and its lists and dicts would
    otherwise start tens of collections that each walk all of it.  The
    collector is enabled again on return only if it was enabled on entry.
    """
    with open(path, "rb") as fh:
        doc = fh.read().removeprefix(b"\xef\xbb\xbf")
    collecting = gc.isenabled()
    gc.disable()
    try:
        with contextlib.suppress(orjson.JSONDecodeError, DatasetFormatError, RecursionError):
            if _nesting(doc) <= _MAX_NESTING:
                doc = orjson.loads(doc)
                return _dataset(doc, path)
        doc = _read_text(path)
        try:  # an integer too long for a float reads as inf, not as an int float() refuses
            doc = json.loads(doc, parse_int=lambda t: int(t) if len(t) < 309 else float(t))
        except (json.JSONDecodeError, RecursionError) as exc:
            raise DatasetFormatError(f"{path}: invalid JSON: {exc}") from exc
        return _dataset(doc, path)
    finally:
        if collecting:
            gc.enable()


def _nesting(data: bytes) -> int:
    """How deep arrays and objects nest in JSON text (in other text, at least
    how deep before its first error), from its unescaped brackets and quotes."""
    data = data.replace(b"\\\\", b"").replace(b'\\"', b"") if b"\\" in data else data
    # [, ] and quotes; dropping "" pairs keeps each bracket in or out of a string.
    marks = data.translate(bytes.maketrans(b"{}", b"[]"), bytes(set(range(256)) - set(b'"[]{}')))
    marks = marks.replace(b'""', b"").split(b'"')
    marks, depth = b"".join(marks[::2]), 0  # the brackets outside strings
    while b"[]" in marks and depth <= _MAX_NESTING and b"[" * (_MAX_NESTING + 1) not in marks:
        marks, depth = marks.replace(b"[]", b""), depth + 1  # the innermost pairs
    return depth + marks.count(b"[")  # and the brackets never closed


def _dataset(doc, path) -> UncertainDataset:
    """The dataset of a parsed file.  One loop checks each item's structure
    and reads each cell's form once, gathering the cells' parameters by kind.
    Each kind is then checked and its moments computed as one array, the mvn
    arrays stacked, and the covariances checked as one stack (one
    ``eigvalsh`` for PSD).  The error reported is that of the first bad item
    or cell in file order; a rejected cell is worded from its first broken
    rule, as its class words it, without building it.  Cells are built from
    their parameters when ``items`` is first read: nothing of doc is kept.
    """
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
    weights, labels, diag_index, full_index, mvns = [], [], [], [], []
    codes, params = bytearray(), ([], [], [], [])  # per cell, per kind
    form_error = None  # every item and cell read before it has a good form
    try:
        for i, obj in enumerate(items_doc):
            weight, label, values, mvn = _item_fields(obj, i, dim)
            weights.append(weight)
            labels.append(label)
            if mvn is None:
                diag_index.append(i)
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
    rules = np.empty((3, codes.size), dtype=bool)
    cell_params = np.zeros((codes.size, 4))  # each cell's parameters, zero-padded
    for code, kind_params in enumerate(params):
        at, width = codes == code, _CELL_KINDS[code][1]
        cell_params[at, :width] = np.reshape(kind_params, (-1, width))
        cell_means[at], cell_vars[at], rules[:, at] = _cell_moments(code, kind_params)
    errors = []  # (item, error) of the first rejected cell and of the first bad mvn
    if rules.any():
        k = int(np.argmax(rules.any(axis=0)))
        row, j = divmod(k, dim)
        i, spec = diag_index[row], items_doc[diag_index[row]]["values"][j]
        error = (_cell_rule_error(*_cell_params(spec, i, j), rules[:, k])
                 or f"the mean or variance of {json.dumps(spec)} is not finite")
        errors.append((i, f"item {i}, value {j}: {error}"))
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
    names = [lab if lab is not None else f"item{i + 1}" for i, lab in enumerate(labels)]
    # Copies: a string of doc would keep the memory around it from the OS.
    joined, ends = "".join(names), list(accumulate(map(len, names)))
    use_labels = tuple(joined[a:b] for a, b in zip([0, *ends], ends))
    try:
        full_covs = _cov_stack(mvn_table[1],
                               lambda g: f"item {full_index[g]}: Gaussian covariance")
        return UncertainDataset._from_table(
            means, full_index, full_covs, diag_index, cell_vars.reshape(-1, dim),
            cells=lambda r: [_cell_classes()[c](*p[:_CELL_KINDS[c][1]]) for c, p in zip(
                codes.reshape(-1, dim)[r].tolist(), cell_params.reshape(-1, dim, 4)[r].tolist())],
            weights=np.array(weights, dtype=float), dim_names=tuple(dims),
            labels=use_labels if any(lab is not None for lab in labels) else None,
        )
    except ValueError as exc:
        raise DatasetFormatError(f"{path}: {exc}") from exc


def dataset_to_json(ds: UncertainDataset) -> dict:
    """Serialize a dataset; cluster items come out as moment-equal Gaussians."""
    from .items import Point, ProductOf1D

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
