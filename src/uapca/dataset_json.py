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
[a, b, c, d]}, and {"normal": {"mean": m, "sd": s}}.  orjson reads the
items array a slice of about ``_CHUNK`` bytes at a time, cut by one pass
over the bytes (``_scan``), and each slice is reduced to columns before the
next is parsed; ``json`` reads, whole, any file the pass does not cut and
any file with an error.  Reading a file loads no item class, even to word a
rejected cell's error (the cells' rules are in ``model``): cells are built,
and ``items`` loaded, when ``items`` is read.
"""

from __future__ import annotations

import contextlib
import functools
import gc
import json
import re
from array import array
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
_CHUNK = 1 << 16  # bytes of text that _scan reads, and orjson parses, at a time
_NOT_MARKS = bytes(set(range(256)) - set(b'"[]{}'))
_AS_SQUARE = bytes.maketrans(b"{}", b"[]")
_ITEMS_KEY = re.compile(rb'"items"[ \t\r\n]*(:[ \t\r\n]*(\[)?)?')
_ITEM_START = re.compile(rb'\{[ \t\r\n]*"(?:label|weight|values|mvn)"')


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
    """Read a JSON dataset file into an UncertainDataset.

    ``_scan`` cuts the file's items array into slices of about ``_CHUNK``
    bytes.  orjson parses the file with that array left empty, and then the
    array a slice at a time, each slice reduced to columns before the next
    is parsed, so that the whole parsed document never exists.  ``json``
    reads again, and words the error of, what orjson refuses (NaN, lone
    surrogates, bytes that are not UTF-8), any file ``_scan`` does not cut
    and a file with an error: orjson reads an integer past 64 bits as a
    float, which prints otherwise.

    The cyclic collector is paused while parsed text lives: it holds no
    reference cycle, and its lists and dicts would otherwise start tens of
    collections that each walk all of it.  The collector is enabled again
    on return only if it was enabled on entry.
    """
    with open(path, "rb") as fh:
        doc = fh.read()
    start = 3 if doc.startswith(b"\xef\xbb\xbf") else 0
    collecting = gc.isenabled()
    gc.disable()
    try:
        with contextlib.suppress(orjson.JSONDecodeError, DatasetFormatError, RecursionError):
            if cuts := _scan(doc, start):
                top = orjson.loads(doc[start:cuts[0]] + doc[cuts[-1]:])
                slices, doc = _slices(doc, cuts), None  # the text goes with the last slice
                return _dataset(top, path, slices)
        doc = _read_text(path)
        try:  # an integer too long for a float reads as inf, not as an int float() refuses
            doc = json.loads(doc, parse_int=lambda t: int(t) if len(t) < 309 else float(t))
        except (json.JSONDecodeError, RecursionError) as exc:
            raise DatasetFormatError(f"{path}: invalid JSON: {exc}") from exc
        return _dataset(doc, path)
    finally:
        if collecting:
            gc.enable()


def _scan(doc: bytes, start: int) -> list[int] | None:
    """The cuts of the items array of JSON text doc[start:]: the offset past
    its "[", the offsets of some of its elements' "{", about ``_CHUNK`` apart,
    and the offset of its "]".  None, for the json route, if the text has no
    top-level "items" key, two, one a backslash may spell, one whose value
    is not an array, or nesting deeper than ``_MAX_NESTING``.

    One pass reads the text a block at a time, each block ending at the first
    item start (an object whose first key is an item key) found past
    ``_CHUNK``, and carries from block to block whether the text is in a
    string and how deep it nests; a block ends at a cut if that is in the
    items array at depth 2.  A block is split further where '"items"' is
    found outside the array, and one that ends at no item start at its last
    "]".  The array ends at the first "]" that takes the depth below 2 in a
    block that ends below 2 or at no item start; a dip below 2 inside a
    block that ends at an item start at depth 2 again is left to orjson, as
    that block's slice then holds a "]" that ends it early.
    """
    quoted = depth = escaped = 0
    at = look = start  # the state above is that before doc[at]
    cuts, close = [], None
    while at < len(doc):
        a = at
        cut = _ITEM_START.search(doc, a + _CHUNK, a + 2 * _CHUNK)
        end = cut.start() if cut else min(a + _CHUNK, len(doc))
        block = doc[a:end]
        if escaped and block[:1] in (b'"', b"\\"):  # escaped by the block before
            block = b"_" + block[1:]
        if escaped := b"\\" in block:  # the same length, with no escaped quote or backslash
            block = block.replace(b"\\\\", b"__").replace(b'\\"', b"__")
            escaped = block.endswith(b"\\")
        while at < end:
            inside = cuts and close is None  # in the items array
            key = -1 if inside else doc.find(b'"items"', max(at, look), end + 6)
            p = end if key < 0 else key
            if inside and not cut and (last := a + block.rfind(b"]", at - a)) > at:
                p = last  # most often the array's "]", which leaves _close little to halve
            rest, ends_quoted = _outside(block[at - a:p - a], quoted)
            opens = rest.count(b"[")
            if depth + opens > _MAX_NESTING and _depths(rest, depth).max() > _MAX_NESTING:
                return None
            low = depth + 2 * opens - len(rest) if cut else _depths(rest, depth).min()
            if inside and low < 2:
                cuts.append(close := at + _close(block[at - a:p - a], quoted, depth))
                quoted, depth, at = 0, 1, close + 1
                continue
            quoted, depth, at = ends_quoted, depth + 2 * opens - len(rest), p
            if p == key:
                look, key = p + 1, _ITEMS_KEY.match(doc, p)
                if quoted or depth != 1 or not key[1]:  # not a top-level key
                    continue
                if cuts or not key[2]:
                    return None
                cuts.append(at := key.end())
                depth = 2
            elif cut and inside and not quoted and depth == 2 and (
                    len(cuts) > 1 or doc[cuts[0]:p].strip(b" \t\r\n")):  # not the first item
                cuts.append(p)
    if close is None or doc.find(b"\\", start, cuts[0]) >= 0 or doc.find(b"\\", close) >= 0:
        return None
    return cuts


def _outside(text: bytes, quoted: int) -> tuple[bytes, int]:
    """The brackets of JSON text outside strings, "{" and "}" read as "[" and
    "]", and whether it ends in a string; quoted: whether it starts in one."""
    marks = text.translate(_AS_SQUARE, _NOT_MARKS).replace(b'""', b"").split(b'"')
    return b"".join(marks[quoted::2]), quoted ^ (len(marks) - 1) & 1


def _depths(brackets: bytes, depth: int) -> np.ndarray:
    """The depth before, and after each of, brackets from ``_outside``."""
    steps = 92 - np.frombuffer(b"\\" + brackets, np.int8)  # "[": 1, "]": -1, "\\": 0
    return depth + np.add.accumulate(steps, dtype=np.int32)


def _close(text: bytes, quoted: int, depth: int) -> int:
    """The offset of the "]" that first takes text below depth 2, found by halving."""
    at = 0
    while len(text) > 1:
        head = text[:len(text) // 2]
        rest, ends_quoted = _outside(head, quoted)
        if _depths(rest, depth).min() < 2:
            text = head
        else:
            at, text = at + len(head), text[len(head):]
            quoted, depth = ends_quoted, depth + 2 * rest.count(b"[") - len(rest)
    return at


def _slices(doc: bytes, cuts: list[int]):
    """The items between each two cuts, parsed by orjson one slice at a time."""
    view = memoryview(doc)
    for a, b in zip(cuts, cuts[1:]):
        end = b
        if b < cuts[-1]:  # a comma, and only space, ends each slice but the last
            end = doc.rfind(b",", a, b)
            if end < 0 or doc[end + 1:b].strip(b" \t\r\n"):
                raise DatasetFormatError("items not separated by a comma")
        yield orjson.loads(b"".join((b"[", view[a:end], b"]")))


def _dataset(doc, path, slices=None) -> UncertainDataset:
    """The dataset of a parsed file, whose items ``slices`` yields a list at a
    time, or doc["items"] holds.  One loop checks each item's structure and
    reads each cell's form once, gathering the cells' parameters by kind; each
    slice's mvn arrays are then stacked and its labels copied, so that nothing
    of a slice is kept.  Each kind of cell is then checked and its moments
    computed as one array, and the covariances checked as one stack (one
    ``eigvalsh`` for PSD).  The error reported is that of the first bad item
    or cell in file order; a rejected cell is worded from its first broken
    rule, as its class words it, without building it, from doc["items"]
    (which a sliced read leaves empty: json reads the file again to word
    it).  Cells are built from their parameters when ``items`` is first read.
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

    dim = len(dims)
    weights, lengths, params = array("d"), array("q"), tuple(array("d") for _ in _CELL_KINDS)
    diag_index, full_index, codes = array("q"), array("q"), bytearray()  # codes: per cell
    tables, texts, labelled, errors, form_error = [], [], False, [], None
    for items in slices or (items_doc,):
        first, mvns, names, kinds = len(full_index), [], [], ([], [], [], [])
        try:
            for i, obj in enumerate(items, len(weights)):
                weight, label, values, mvn = _item_fields(obj, i, dim)
                weights.append(weight)
                labelled |= label is not None
                names.append(f"item{i + 1}" if label is None else label)
                if mvn is None:
                    diag_index.append(i)
                    for j, spec in enumerate(values):
                        code, p = _cell_params(spec, i, j)
                        codes.append(code)
                        kinds[code].extend(p)
                else:
                    full_index.append(i)
                    mvns.append(mvn)
        except DatasetFormatError as exc:
            form_error = exc  # every item and cell read before it has a good form
        for column, kind in zip(params, kinds):
            column.fromlist(kind)
        texts.append("".join(names))  # a string of a slice would keep memory around it
        lengths.extend(map(len, names))
        tables.append(_mvn_table(mvns, dim))
        if tables[-1] is None:
            errors = [next((i, f"item {i}: {error}") for i, mvn in zip(full_index[first:], mvns)
                           if (error := _mvn_error(mvn, dim)))]
        if errors or form_error:
            break

    codes = np.frombuffer(codes, dtype=np.uint8)
    cell_means, cell_vars = np.empty(codes.size), np.empty(codes.size)
    rules = np.empty((3, codes.size), dtype=bool)
    cell_params = np.zeros((codes.size, 4))  # each cell's parameters, zero-padded
    for code, kind_params in enumerate(params):
        at, width = codes == code, _CELL_KINDS[code][1]
        cell_params[at, :width] = np.reshape(kind_params, (-1, width))
        cell_means[at], cell_vars[at], rules[:, at] = _cell_moments(code, kind_params)
    if rules.any():  # the first rejected cell
        if not items_doc:
            raise DatasetFormatError(path)
        k = int(np.argmax(rules.any(axis=0)))
        row, j = divmod(k, dim)
        i, spec = diag_index[row], items_doc[diag_index[row]]["values"][j]
        error = (_cell_rule_error(*_cell_params(spec, i, j), rules[:, k])
                 or f"the mean or variance of {json.dumps(spec)} is not finite")
        errors.append((i, f"item {i}, value {j}: {error}"))
    if errors or form_error:
        raise DatasetFormatError(f"{path}: {min(errors)[1] if errors else form_error}")

    means = np.empty((len(weights), dim))
    means[diag_index] = cell_means.reshape(-1, dim)
    means[full_index] = np.concatenate([table[0] for table in tables])
    joined, ends = "".join(texts), list(accumulate(lengths))
    try:
        full_covs = _cov_stack(np.concatenate([table[1] for table in tables]),
                               lambda g: f"item {full_index[g]}: Gaussian covariance")
        return UncertainDataset._from_table(
            means, full_index, full_covs, diag_index, cell_vars.reshape(-1, dim),
            cells=lambda r: [_cell_classes()[c](*p[:_CELL_KINDS[c][1]]) for c, p in zip(
                codes.reshape(-1, dim)[r].tolist(), cell_params.reshape(-1, dim, 4)[r].tolist())],
            weights=np.array(weights), dim_names=tuple(dims),
            labels=tuple(joined[a:b] for a, b in zip([0, *ends], ends)) if labelled else None,
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
