import copy
import csv
import gc
import io
import json
import math

import numpy as np
import orjson
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from uapca.io import (
    DatasetFormatError,
    LABEL_COLUMN,
    PointsData,
    aggregate_by_label,
    load_points,
    points_dataset,
    standardize_dataset,
    standardize_points,
    write_eigencurves_csv,
    write_projection_csv,
    write_traces_csv,
    _fields,
    orjson_fields,
)
import uapca.dataset_json
from uapca.cov import global_cov
from uapca.dataset_json import dataset_to_json, load_dataset, save_dataset
from uapca.items import (
    EmpiricalCluster,
    Gaussian,
    Interval,
    Normal1D,
    Number,
    Point,
    ProductOf1D,
    Scalar1D,
    Trapezoid,
)
from uapca.model import UncertainDataset, _cov_stack, _population_moments
from uapca.sensitivity import SweepSchedule, factor_traces, sweep


def test_bundled_students_dataset_loads(students_path):
    ds = load_dataset(students_path)
    assert ds.dim == 4
    assert ds.dim_names == ("M1", "M2", "P1", "P2")
    assert len(ds) == 6
    assert ds.labels is not None and ds.labels[0] == "Tom"
    assert all(isinstance(it, ProductOf1D) for it in ds.items)
    tom = ds.items[0]
    assert isinstance(tom.cells[0], Number)
    assert isinstance(tom.cells[1], Interval)
    assert isinstance(tom.cells[2], Normal1D)
    assert isinstance(tom.cells[3], Trapezoid)


def test_save_load_roundtrip_preserves_moments(tmp_path, students_path):
    ds = load_dataset(students_path)
    out = tmp_path / "copy.json"
    save_dataset(ds, out)
    back = load_dataset(out)
    assert back.dim_names == ds.dim_names
    assert back.labels == ds.labels
    assert np.array_equal(back.weights, ds.weights)
    for a, b in zip(ds.items, back.items):
        assert np.array_equal(a.mean(), b.mean())
        assert np.array_equal(a.cov(), b.cov())


def test_save_load_roundtrip_returns_equal_cells(tmp_path):
    cells = [Number(-2.5), Interval(0.1, 0.7), Trapezoid(1.0, 1.5, 2.25, 4.0),
             Normal1D(3.3, 0.2)]
    ds = UncertainDataset(items=(ProductOf1D(cells), ProductOf1D(cells[::-1])))
    out = tmp_path / "cells.json"
    save_dataset(ds, out)
    back = load_dataset(out)
    assert [list(item.cells) for item in back.items] == [cells, cells[::-1]]


def test_save_load_roundtrip_of_numpy_and_bool_parameters(tmp_path):
    # Parameters that are not exactly int or float are written as floats.
    cells = [Interval(np.float32(0), np.int64(2)), Number(True),
             Normal1D(np.float64(0.5), np.float16(1.5))]
    ds = UncertainDataset(items=(ProductOf1D(cells),))
    assert dataset_to_json(ds)["items"][0]["values"] == [
        {"interval": [0.0, 2.0]}, {"number": 1.0}, {"normal": {"mean": 0.5, "sd": 1.5}}]
    out = tmp_path / "numpy.json"
    save_dataset(ds, out)
    back = load_dataset(out)
    assert list(back.items[0].cells) == [Interval(0.0, 2.0), Number(1.0), Normal1D(0.5, 1.5)]


def test_cluster_items_serialize_as_gaussians(tmp_path):
    cluster = EmpiricalCluster([[0.0, 0.0], [2.0, 0.0], [1.0, 3.0]])
    ds = UncertainDataset(items=(cluster, Gaussian([0.0, 1.0], np.eye(2))))
    doc = dataset_to_json(ds)
    assert "mvn" in doc["items"][0]
    out = tmp_path / "clusters.json"
    save_dataset(ds, out)
    back = load_dataset(out)
    assert isinstance(back.items[0], Gaussian)
    assert np.abs(back.items[0].mean() - cluster.mean()).max() <= 1e-15
    assert np.abs(back.items[0].cov() - cluster.cov()).max() <= 1e-15


def _write(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text, encoding="utf-8")
    return p


def test_dataset_parse_errors_carry_context(tmp_path):
    cases = [
        ("not json {", "invalid JSON"),
        ('{"dims": [], "items": []}', "'dims'"),
        ('{"dims": ["a"], "items": {}}', "'items'"),
        ('{"dims": ["a"], "items": []}', "empty dataset"),
        ('{"dims": ["a"], "items": [{"values": [{"number": 1}], "mvn": {}}]}',
         "exactly one of 'values' or 'mvn'"),
        ('{"dims": ["a"], "items": [{}]}', "exactly one of 'values' or 'mvn'"),
        ('{"dims": ["a", "b"], "items": [{"values": [{"number": 1}]}]}',
         "must list 2 entries"),
        ('{"dims": ["a"], "items": [{"values": [{"wavelet": 1}]}]}',
         "item 0, value 0"),
        ('{"dims": ["a"], "items": [{"values": [{"interval": [2, 1]}]}]}',
         "lo <= hi"),
        ('{"dims": ["a"], "items": [{"values": [{"number": 1}], "weight": "x"}]}',
         "weight must be a number"),
        ('{"dims": ["a"], "items": [{"mvn": {"mean": [0, 0], "cov": [[1, 0], [0, 1]]}}]}',
         "does not match 'dims'"),
        ('{"dims": ["a"], "items": [{"values": [{"number": 1}], "weight": -1}]}',
         "weights"),
    ]
    for i, (text, fragment) in enumerate(cases):
        path = _write(tmp_path, f"bad{i}.json", text)
        with pytest.raises(DatasetFormatError) as err:
            load_dataset(path)
        assert fragment in str(err.value)


def test_missing_labels_get_positional_names(tmp_path):
    text = json.dumps(
        {
            "dims": ["a"],
            "items": [
                {"values": [{"number": 1}]},
                {"label": "named", "values": [{"number": 2}]},
            ],
        }
    )
    ds = load_dataset(_write(tmp_path, "mixed.json", text))
    assert ds.labels == ("item1", "named")

    text = json.dumps({"dims": ["a"], "items": [{"values": [{"number": 1}]}]})
    ds = load_dataset(_write(tmp_path, "bare.json", text))
    assert ds.labels is None


def test_load_points_with_and_without_labels(tmp_path):
    p = _write(tmp_path, "pts.csv", "x,y,label\n1,2,red\n3,4,blue\n5,6,red\n")
    pts = load_points(p)
    assert pts.dim_names == ("x", "y")
    assert pts.labels == ("red", "blue", "red")
    assert np.array_equal(pts.points, [[1, 2], [3, 4], [5, 6]])

    p = _write(tmp_path, "plain.csv", "x,y\n1,2\n3,4\n")
    pts = load_points(p)
    assert pts.labels is None
    assert pts.points.shape == (2, 2)


def test_load_points_errors(tmp_path):
    with pytest.raises(DatasetFormatError, match="header row"):
        load_points(_write(tmp_path, "empty.csv", "x,y\n"))
    with pytest.raises(DatasetFormatError, match="row 3"):
        load_points(_write(tmp_path, "ragged.csv", "x,y\n1,2\n1\n"))
    with pytest.raises(DatasetFormatError, match="could not parse"):
        load_points(_write(tmp_path, "text.csv", "x,y\n1,apple\n"))
    with pytest.raises(DatasetFormatError, match="non-finite"):
        load_points(_write(tmp_path, "inf.csv", "x,y\n1,inf\n"))
    with pytest.raises(DatasetFormatError, match="no numeric columns"):
        load_points(_write(tmp_path, "onlylabel.csv", "label\na\nb\n"))


def test_points_dataset_items_are_point_masses(tmp_path):
    p = _write(tmp_path, "pts.csv", "x,y,label\n1,2,red\n3,4,blue\n")
    ds = points_dataset(load_points(p))
    assert len(ds) == 2
    assert ds.labels == ("red", "blue")
    assert np.array_equal(ds.items[0].cov(), np.zeros((2, 2)))


def test_aggregate_gaussian_matches_class_moments(iris_path):
    pts = load_points(iris_path)
    ds = aggregate_by_label(pts)
    assert len(ds) == 3
    assert ds.labels == ("setosa", "versicolor", "virginica")
    assert np.array_equal(ds.weights, [50.0, 50.0, 50.0])
    rows = pts.points[np.array(pts.labels) == "setosa"]
    assert np.abs(ds.items[0].mean() - rows.mean(axis=0)).max() <= 1e-12
    expect = np.cov(rows.T, bias=True)
    assert np.abs(ds.items[0].cov() - expect).max() <= 1e-12


def test_aggregate_one_point_class_has_zero_covariance():
    pts = PointsData(points=np.array([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]]),
                     dim_names=("x", "y"), labels=("a", "b", "a"))
    ds = aggregate_by_label(pts)
    assert ds.labels == ("a", "b")
    assert np.array_equal(ds.weights, [2.0, 1.0])
    assert np.array_equal(ds.means(), [[3.0, 4.0], [3.0, 4.0]])
    assert np.array_equal(ds.full_covs[1], np.zeros((2, 2)))
    assert np.array_equal(ds.items[1].cov(), np.zeros((2, 2)))


@st.composite
def _labeled_points(draw):
    """Points with labels over few classes, so that one-point classes are common."""
    n = draw(st.integers(1, 24))
    d = draw(st.integers(1, 4))
    labels = draw(st.lists(st.sampled_from("abcdefg"), min_size=n, max_size=n))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    points = rng.normal(size=(n, d)) * 10.0 ** rng.integers(-3, 4, size=d)
    if draw(st.booleans()):
        points = np.asfortranarray(points)
    return PointsData(points=points, dim_names=tuple(f"x{i}" for i in range(d)),
                      labels=tuple(labels))


@settings(max_examples=150, deadline=None)
@given(_labeled_points())
def test_aggregate_rows_are_class_moments_bit_for_bit(pts):
    names = tuple(dict.fromkeys(pts.labels))
    ds = aggregate_by_label(pts)
    assert ds.labels == names
    assert ds.weights.tolist() == [float(pts.labels.count(lab)) for lab in names]
    assert ds.full_index.tolist() == list(range(len(names)))
    for i, lab in enumerate(names):
        rows = pts.points[[j for j, x in enumerate(pts.labels) if x == lab]]
        mean, cov = _population_moments(rows)
        assert ds.means()[i].tobytes() == mean.tobytes()
        assert ds.full_covs[i].tobytes() == cov.tobytes()


def test_aggregate_errors(tmp_path):
    p = _write(tmp_path, "few.csv", "x,y,label\n1,2,a\n3,4,a\n5,6,b\n")
    pts = load_points(p)
    # A one-point class is accepted, with zero covariance.
    ds = aggregate_by_label(pts)
    assert np.array_equal(ds.weights, [2.0, 1.0])
    assert np.array_equal(ds.full_covs[1], np.zeros((2, 2)))
    with pytest.raises(TypeError, match="kind"):
        aggregate_by_label(pts, kind="gaussian")
    unlabeled = PointsData(points=pts.points, dim_names=pts.dim_names)
    with pytest.raises(DatasetFormatError, match="no label column"):
        aggregate_by_label(unlabeled)


def test_aggregate_names_the_first_bad_class():
    # The rows of b overflow the mean and the covariance; those of a with
    # the same label the covariance only.
    big = 1.3e154
    points = np.array([[0.0, 0.0], [big, 0.0], [1e308, 0.0], [1e308, 0.0], [-big, 0.0]])
    for labels, error in (
        (("c", "a", "b", "b", "a"), "class 'a': covariance contains non-finite entries"),
        (("c", "a", "b", "b", "c"), "class 'b': mean contains non-finite entries"),
    ):
        pts = PointsData(points=points, dim_names=("x", "y"), labels=labels)
        with pytest.raises(DatasetFormatError) as err:
            aggregate_by_label(pts)
        assert str(err.value) == error


def test_aggregate_psd_error_names_the_class(monkeypatch):
    import uapca.io

    def moments(rows):
        mean, cov = _population_moments(rows)
        return mean, cov - (rows.shape[0] == 1) * np.eye(rows.shape[1])

    monkeypatch.setattr(uapca.io, "_population_moments", moments)
    pts = PointsData(points=np.arange(6.0).reshape(3, 2), dim_names=("x", "y"),
                     labels=("a", "a", "b"))
    with pytest.raises(ValueError, match="^class 'b': covariance is not positive semi-definite"):
        aggregate_by_label(pts)


def test_standardize_points():
    rng = np.random.default_rng(3)
    pts = rng.normal(2.0, 5.0, (40, 3))
    z = standardize_points(pts)
    assert np.abs(z.mean(axis=0)).max() <= 1e-12
    assert np.abs(z.std(axis=0) - 1.0).max() <= 1e-12
    with pytest.raises(DatasetFormatError, match="zero variance"):
        standardize_points(np.array([[1.0, 2.0], [1.0, 3.0]]))


def test_standardize_dataset_gives_unit_axis_variances(students_path):
    ds = standardize_dataset(load_dataset(students_path))
    g = global_cov(ds)
    assert np.abs(np.diag(g.at(1.0)) - 1.0).max() <= 1e-12
    assert np.abs(g.mean).max() <= 1e-12


def test_standardize_dataset_rejects_flat_axis():
    ds = UncertainDataset(
        items=(ProductOf1D([Number(1.0), Number(0.0)]),
               ProductOf1D([Number(1.0), Number(2.0)]))
    )
    with pytest.raises(DatasetFormatError, match="zero variance"):
        standardize_dataset(ds)


def test_traces_csv_layout(tmp_path, students_path):
    ds = load_dataset(students_path)
    sched = SweepSchedule(steps=4)
    models, curves = sweep(ds, q=2, schedule=sched)
    traces = factor_traces(models, sched)
    path = tmp_path / "t.csv"
    write_traces_csv(path, traces, sched, ds.dim_names)
    lines = path.read_text(encoding="utf-8").splitlines()
    assert lines[0] == "step,s,axis,orientation,x,y"
    assert len(lines) == 1 + 4 * 4 * 2  # dims * steps * orientations
    plus = lines[1].split(",")
    minus = lines[2].split(",")
    assert plus[:4] == ["0", "0.0", "M1", "+"]
    assert minus[:4] == ["0", "0.0", "M1", "-"]
    assert float(plus[4]) == -float(minus[4])
    # The limit step serializes as inf.
    assert any(row.split(",")[1] == "inf" for row in lines[1:])

    epath = tmp_path / "e.csv"
    write_eigencurves_csv(epath, curves)
    elines = epath.read_text(encoding="utf-8").splitlines()
    assert elines[0] == "step,s,index,lambda"
    assert len(elines) == 1 + 4 * 4  # steps * dims


def test_traces_csv_requires_two_components(tmp_path, students_path):
    ds = load_dataset(students_path)
    sched = SweepSchedule(steps=3)
    models, _ = sweep(ds, q=3, schedule=sched)
    traces = factor_traces(models, sched)
    with pytest.raises(ValueError, match="q = 2"):
        write_traces_csv(tmp_path / "t.csv", traces, sched, ds.dim_names)


def test_projection_csv_layout(tmp_path):
    means = np.array([[1.0, 2.0], [0.0, 0.0]])
    covs = np.array([[[1.0, 0.25], [0.25, 2.0]], np.zeros((2, 2))])
    path = tmp_path / "p.csv"
    write_projection_csv(path, ["a", "b"], means, covs)
    lines = path.read_text(encoding="utf-8").splitlines()
    assert lines[0] == "label,mean_1,mean_2,cov_1_1,cov_1_2,cov_2_1,cov_2_2"
    assert lines[1] == "a,1.0,2.0,1.0,0.25,0.25,2.0"
    assert lines[2] == "b,0.0,0.0,0.0,0.0,0.0,0.0"
    with pytest.raises(ValueError, match="nothing to write"):
        write_projection_csv(tmp_path / "n.csv", [], np.empty((0, 2)), np.empty((0, 2, 2)))


def test_csv_numbers_fold_negative_zero(tmp_path):
    path = tmp_path / "z.csv"
    write_projection_csv(path, ["z"], np.array([[0.0, -0.0]]), -np.zeros((1, 2, 2)))
    text = path.read_text(encoding="utf-8")
    assert "-0.0" not in text


@pytest.mark.parametrize("column", [
    [0.0, 0.0, 0.0], [-0.0, -0.0], [0.0, math.nan, -0.0], [-0.0, 1.5, 0.0, -2.25e-300],
], ids=["zeros", "negative-zeros", "nan", "mixed"])
def test_fields_of_a_float_column_are_its_reprs(column):
    column = np.array(column)
    assert _fields(column) == orjson_fields(column) == [repr(v + 0.0) for v in column.tolist()]


# Where repr changes layout (1e-4, 1e16), the float edges, and exact integers.
_NAMED_FLOATS = [
    np.nextafter(1e-4, 0.0), 1e-4, np.nextafter(1e-4, 1.0),
    np.nextafter(1e16, 0.0), 1e16, np.nextafter(1e16, math.inf),
    0.0, -0.0, 5e-324, 2.2250738585072014e-308, 1.7976931348623157e308,
    2.0**53 - 1, 2.0**53, 2.0**53 + 2, 0.1, 100.0, math.nan, math.inf,
]


def test_orjson_fields_equal_fields_on_named_values():
    column = np.array([*_NAMED_FLOATS, *(-v for v in _NAMED_FLOATS)])
    assert orjson_fields(column) == _fields(column)
    for v in column:
        assert orjson_fields(np.array([v])) == _fields(np.array([v]))


def test_orjson_fields_equal_fields_on_short_and_strided_columns():
    # _write_csv passes each pass's slice of a column, which may be strided.
    table = np.random.default_rng(3).normal(size=(9, 4)) * [1e-6, 1.0, 1e17, 1e3]
    assert orjson_fields(np.empty(0)) == _fields(np.empty(0)) == []
    assert orjson_fields(table[0, :1]) == _fields(table[0, :1])
    for column in (table[:, 0], table[:, 2], table[::2, 1], table.T[1], table[::-1, 3],
                   table.ravel()[3::5]):
        assert not column.flags.c_contiguous
        assert orjson_fields(column) == _fields(column)


@pytest.mark.parametrize("band", [False, True], ids=["any-exponent", "orjson-layout-band"])
def test_orjson_fields_equal_fields_on_random_bit_patterns(band):
    # 10**6 random doubles.  Uniform bits put few of them in [1e-4, 1e16),
    # the only range whose texts come from orjson, so the second run draws
    # the exponent field from that range's.
    bits = np.random.default_rng(2019 + band).integers(0, 2**64, size=10**6, dtype=np.uint64)
    if band:
        low, high = (int(np.array(v).view(np.uint64)) >> 52 & 0x7FF for v in (1e-4, 1e16))
        exponents = np.random.default_rng(7).integers(low, high + 1, size=bits.size)
        bits = bits & ~np.uint64(0x7FF << 52) | (exponents.astype(np.uint64) << np.uint64(52))
    column = bits.view(np.float64)
    with np.errstate(invalid="ignore"):  # + 0.0 on a signalling NaN
        for start in range(0, column.size, 4096):
            chunk = column[start:start + 4096]
            assert orjson_fields(chunk) == _fields(chunk)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True),
                max_size=40))
def test_orjson_fields_equal_fields_on_any_floats(values):
    column = np.array(values, dtype=float)
    assert orjson_fields(column) == _fields(column)


def test_orjson_fields_pass_text_columns_to_fields():
    for column in (["a", "b,c", 'd"e'], [0, 12, -3]):
        assert orjson_fields(column) == _fields(column)


def test_label_column_name():
    assert LABEL_COLUMN == "label"


def _reference_load_points(path) -> PointsData:
    """The cell-by-cell parser that ``load_points`` must agree with: every
    numeric cell through float(), rows counted among the non-blank ones."""
    import csv
    import math

    with open(path, "r", encoding="utf-8-sig", newline="") as fh:
        try:
            rows = [row for row in csv.reader(fh) if row]
        except csv.Error as exc:
            raise DatasetFormatError(f"{path}: not readable as CSV: {exc}") from None
    if len(rows) < 2:
        raise DatasetFormatError(f"{path}: need a header row and at least one data row")
    header = [h.strip() for h in rows[0]]
    has_labels = bool(header) and header[-1] == LABEL_COLUMN
    dim = len(header) - 1 if has_labels else len(header)
    if dim < 1:
        raise DatasetFormatError(f"{path}: no numeric columns found")
    points = np.empty((len(rows) - 1, dim))
    labels = []
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
            points[r - 2, c] = value
        if has_labels:
            labels.append(row[-1].strip())
    return PointsData(points, tuple(header[:dim]), tuple(labels) if has_labels else None)


_CELLS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.integers(-10**6, 10**6).map(str),
    st.sampled_from([
        "nan", "inf", "-Infinity", "1e400", "-1e400", "1e-400", " 1.5 ", "\t-2\t", "1_0",
        "１２", "", " ", "abc", "1 5", "0x10", '"3.5"', '"1,5"', "+.5", "5.",
        "1.00000000000000000000001",
    ]),
)
_LABELS = st.sampled_from(
    ["a", " padded ", '"x,y"', '"multi\nline"', '""', '"say ""hi"""', "#hash", "label"]
)


@st.composite
def _points_csv(draw):
    dim = draw(st.integers(1, 3))
    labelled = draw(st.booleans())
    header = [f"c{j}" for j in range(dim)] + (["label"] if labelled else [])
    lines = [",".join(f" {h} " if draw(st.booleans()) else h for h in header)]
    for _ in range(draw(st.integers(0, 6))):
        if draw(st.integers(0, 9)) == 0:
            lines.append("")  # a blank line
            continue
        fields = [draw(_CELLS) for _ in range(dim)] + ([draw(_LABELS)] if labelled else [])
        extra = draw(st.integers(-1, 1)) if draw(st.integers(0, 7)) == 0 else 0
        if extra > 0:
            fields.append("9")
        elif extra < 0 and len(fields) > 1:
            fields.pop()
        lines.append(",".join(fields))
    newline = draw(st.sampled_from(["\n", "\r\n"]))
    return newline.join(lines) + (newline if draw(st.booleans()) else "")


def _outcome(parse, path):
    try:
        pts = parse(path)
    except DatasetFormatError as exc:
        return "error", str(exc)
    assert pts.labels is None or len(pts.labels) == len(pts.points)
    return "ok", (pts.points.shape, pts.points.tobytes(), pts.dim_names, pts.labels)


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(text=_points_csv())
def test_load_points_agrees_with_the_cell_by_cell_parser(tmp_path, text):
    path = tmp_path / "pts.csv"
    path.write_bytes(text.encode("utf-8"))
    assert _outcome(load_points, path) == _outcome(_reference_load_points, path)


@pytest.mark.parametrize("text", [
    "x,y,label\n1,2,a\n\n3,4,\"b,c\"\n",         # blank line, quoted comma
    "x,y,label\n1,2,\"a\n3,4,b\"\n5,6,c\n",      # a label over two lines
    "x,y\n1_0,2\n３,4\n",                    # float() takes these, loadtxt does not
    "x,y\n 1.5 ,\t2\t\n",
    "x,y,label\n1,2,a,extra\n",
    "x,y,label\n1,2\n",
    "x,y\n1,nan\n", "x,y\n1,2\n3,inf\n", "x,y\n1e400,2\n", "x,y\n1, \n",
    "\n\nx,y\n1,2\n",
    "x,y,label\r\n1,2,a\x0bb\r\n3,5,c\r\n",  # \v ends a line for str.splitlines only
    "x,y,label\r1,2,a\r3,5,b\r",              # CR-only newlines
    "x,y,label\n1,2,\"a b\"\n3,5,c\n",          # a quoted label
    "x,y,label\n1,2,a\x00b\n", "x,y\n1,2\x003\n",  # NUL in a label, in a number
    "x,y,label\r\n1,2,a\u2028b\r\n3,5,c\r\n",  # U+2028 in a CRLF file's label
    "x,y,label\n1,2,a\n3,5,b",                # no trailing newline
    "\n\nx,y,label\n1,2,a\n", "\r\n\r\nx,y,label\r\n1,2,a\r\n",  # blank lines first
    "\ufeffx,y\n1,2\n3,5\n",                 # a byte order mark
    "x,y,label\n1,2," + "a" * 200_000 + "\n",  # a field over csv's size limit
    # loadtxt strips U+001C-U+001F around a number, float() does not.
    "x\n1\x1c\n", "x\n\x1c1\n", "x,label\n1\x1f,a\n",
])
def test_load_points_edge_cases_match_the_cell_by_cell_parser(tmp_path, text):
    path = tmp_path / "pts.csv"
    path.write_bytes(text.encode("utf-8"))
    assert _outcome(load_points, path) == _outcome(_reference_load_points, path)


def test_loaded_tables_build_their_items_once(tmp_path, students_path):
    pts = load_points(_write(tmp_path, "pts.csv", "x,y,label\n1,2,a\n3,4,b\n"))
    ds = points_dataset(pts)
    # Points have no covariance block: no (N, D, D) stack of zeros.
    assert ds.full_covs.shape == (0, 2, 2) and ds.diag_vars.shape == (0, 2)
    assert ds.means() is ds.means()
    first = ds.items
    assert ds.items is first
    assert all(isinstance(it, Point) for it in first)
    assert np.array_equal(ds.items[1].mean(), [3.0, 4.0])

    doc = {"dims": ["a", "b"], "items": [
        {"mvn": {"mean": [1, 2], "cov": [[2, 1], [1, 2]]}},
        {"values": [{"number": 1}, {"interval": [0, 3]}]},
        {"weight": 2, "mvn": {"mean": [0, 0], "cov": [[1, 0], [0, 1]]}},
    ]}
    ds = load_dataset(_write(tmp_path, "mixed.json", json.dumps(doc)))
    assert ds.full_index.tolist() == [0, 2] and ds.diag_index.tolist() == [1]
    assert np.array_equal(ds.diag_vars, [[0.0, 0.75]])
    assert np.array_equal(ds.means(), [[1.0, 2.0], [1.0, 1.5], [0.0, 0.0]])
    items = ds.items
    assert [type(it) for it in items] == [Gaussian, ProductOf1D, Gaussian]
    assert ds.items is items
    for i, item in enumerate(items):
        assert np.array_equal(item.mean(), ds.means()[i])
    assert np.array_equal(items[0].cov(), ds.full_covs[0])


def test_mvn_checks_name_the_first_bad_item(tmp_path):
    good = {"mvn": {"mean": [0, 0], "cov": [[1, 0], [0, 1]]}}
    cases = [
        ({"mvn": {"mean": [0, 0], "cov": [[1, 0.5], [0.2, 1]]}},
         "item 2: Gaussian covariance is not symmetric"),
        ({"mvn": {"mean": [0, 0], "cov": [[1, 2], [2, 1]]}},
         "item 2: Gaussian covariance is not positive semi-definite (min eigenvalue -1.000e+00"),
        ({"mvn": {"mean": [0, 0], "cov": [[1, 0], [0, "NaN"]]}},
         "item 2: Gaussian covariance contains non-finite entries"),
        ({"mvn": {"mean": [0, "Infinity"], "cov": [[1, 0], [0, 1]]}},
         "item 2: mean contains non-finite entries"),
        ({"mvn": {"mean": [0, 0], "cov": [[1, 0, 0], [0, 1, 0], [0, 0, 1]]}},
         "item 2: mvn 'cov' has shape (3, 3), which does not match 'dims' length 2"),
        ({"mvn": {"mean": [0, 0], "cov": [[1, 0], [0, {}]]}},
         "item 2: mvn 'cov' must be an array of numbers with rows of equal length"),
        ({"mvn": {"mean": [0, [1]], "cov": [[1, 0], [0, 1]]}},
         "item 2: mvn 'mean' must be an array of numbers"),
    ]
    for j, (bad, fragment) in enumerate(cases):
        text = json.dumps({"dims": ["a", "b"], "items": [good, good, bad, good]})
        text = text.replace('"NaN"', "NaN").replace('"Infinity"', "Infinity")
        with pytest.raises(DatasetFormatError) as err:
            load_dataset(_write(tmp_path, f"bad{j}.json", text))
        assert fragment in str(err.value)


# ---------------------------------------------------------------------------
# The column read of dataset files against the item-by-item reader.


_CELL_KEYS = ("number", "interval", "trapezoid", "normal")


def _cell_number(x) -> float:
    if type(x) not in (int, float):
        raise ValueError(f"expected a number, got {json.dumps(x)}")
    return float(x)


def _parse_cell(spec, where: str) -> Scalar1D:
    """The cell of a value spec, checked to have a finite mean and variance
    by the model cell's own formulas."""
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
    return cell


def _reference_item(obj, index, dim):
    """One item as (weight, label, mean, spread, cells), every cell through
    ``_parse_cell``, or the first error."""
    where = f"item {index}"
    if not isinstance(obj, dict):
        raise DatasetFormatError(f"{where}: expected an object, got {type(obj).__name__}")
    label = obj.get("label")
    if label is not None and not isinstance(label, str):
        raise DatasetFormatError(f"{where}: label must be a string")
    weight = obj.get("weight", 1.0)
    if not isinstance(weight, (int, float)) or isinstance(weight, bool):
        raise DatasetFormatError(f"{where}: weight must be a number")
    if ("values" in obj) == ("mvn" in obj):
        raise DatasetFormatError(f"{where}: exactly one of 'values' or 'mvn' is required")
    if "values" in obj:
        values = obj["values"]
        if not isinstance(values, list) or len(values) != dim:
            raise DatasetFormatError(
                f"{where}: 'values' must list {dim} entries to match 'dims'"
            )
        cells = tuple(_parse_cell(spec, f"{where}, value {j}") for j, spec in enumerate(values))
        return (float(weight), label, [c.mean() for c in cells], [c.variance() for c in cells],
                cells)
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
        rows = mvn[key] if key == "cov" else [mvn[key]]
        bad = [v for row in rows for v in row if type(v) not in (int, float)]
        if bad:
            raise DatasetFormatError(
                f"{where}: mvn {key!r} must be an array of numbers, got {json.dumps(bad[0])}"
            )
    return float(weight), label, arrays[0], arrays[1], None


def _reference_load_dataset(path) -> UncertainDataset:
    """The item-by-item reader that ``load_dataset`` must agree with: items
    parsed one by one in file order, the first bad one raising, then the
    mvn covariances checked as one stack."""
    with open(path, "r", encoding="utf-8-sig") as fh:
        try:
            doc = json.load(fh, parse_int=lambda t: int(t) if len(t) < 309 else float(t))
        except (json.JSONDecodeError, RecursionError) as exc:
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
    means, variances = np.empty((n, dim)), np.empty((n, dim))
    weights, labels, cells, full_index, full_covs, diag_index = [], [], [], [], [], []
    for i, obj in enumerate(items_doc):
        try:
            weight, label, means[i], spread, item_cells = _reference_item(obj, i, dim)
        except DatasetFormatError as exc:
            raise DatasetFormatError(f"{path}: {exc}") from exc
        weights.append(weight)
        labels.append(label)
        if item_cells is None:
            full_index.append(i)
            full_covs.append(spread)
        else:
            diag_index.append(i)
            cells.append(item_cells)
            variances[i] = spread
    use_labels = tuple(
        lab if lab is not None else f"item{i + 1}" for i, lab in enumerate(labels)
    ) if any(lab is not None for lab in labels) else None
    try:
        covs = _cov_stack(np.array(full_covs).reshape(-1, dim, dim),
                          lambda g: f"item {full_index[g]}: Gaussian covariance")
        return UncertainDataset._from_table(
            means, full_index, covs, diag_index, variances[diag_index],
            cells=cells.__getitem__, weights=np.array(weights), dim_names=tuple(dims),
            labels=use_labels,
        )
    except ValueError as exc:
        raise DatasetFormatError(f"{path}: {exc}") from exc


def _dataset_outcome(load, path):
    try:
        ds = load(path)
    except DatasetFormatError as exc:
        return "error", str(exc)
    columns = (ds.means(), ds.full_index, ds.full_covs, ds.diag_index, ds.diag_vars, ds.weights)
    return ("ok", [(c.shape, c.dtype.str, c.tobytes()) for c in columns], ds.labels,
            ds.dim_names, [getattr(item, "cells", type(item)) for item in ds.items])


# Non-round magnitudes from 1e-3 to 1e8 with either sign, and some integers.
_MAGNITUDES = st.builds(lambda m, e: m * 10.0 ** e,
                        st.floats(1.0, 10.0, exclude_max=True), st.integers(-3, 7))
_VALUES = st.one_of(
    st.builds(lambda x, sign: sign * x, _MAGNITUDES, st.sampled_from([1.0, -1.0])),
    st.integers(-10**6, 10**6),
)
_SPREADS = st.one_of(_MAGNITUDES, st.just(0.0))
# _DEEP stands for a list nested 1 100 deep, past the 1 024 levels beyond
# which load_dataset leaves a file to json; ``_dataset_text`` writes it into
# the text, as json.dumps and deepcopy recurse once per level.
_DEEP = "list nested 1 100 deep"
_DATASET_SWAPS = ["7", "x", True, None, [], [1.0], {}, {"k": 1}, -0.0, 0,
                  math.nan, math.inf, -math.inf, 1e300, -1e300, 1.3e154, 2e103, 10**400,
                  2**70, -2**64, 10**300, _DEEP]


@st.composite
def _cell_spec(draw):
    kind = draw(st.sampled_from(["number", "interval", "trapezoid", "normal"]))
    x = draw(_VALUES)
    if kind == "number":
        return {"number": x}
    if kind == "interval":
        return {"interval": [x, x + draw(_SPREADS)]}
    if kind == "trapezoid":
        corners = [x]
        for _ in range(3):
            corners.append(corners[-1] + draw(_SPREADS))
        return {"trapezoid": corners}
    return {"normal": {"mean": x, "sd": draw(_SPREADS)}}


@st.composite
def _dataset_item(draw, dim):
    item = {}
    if draw(st.booleans()):
        item["label"] = draw(st.sampled_from(["a", "b", "x<y & z"]))
    if draw(st.booleans()):
        item["weight"] = draw(_SPREADS)
    if draw(st.integers(0, 2)):
        item["values"] = [draw(_cell_spec()) for _ in range(dim)]
    else:
        factor = [[draw(_VALUES) if k <= i else 0.0 for k in range(dim)] for i in range(dim)]
        item["mvn"] = {
            "mean": [draw(_VALUES) for _ in range(dim)],
            "cov": [[sum(a * b for a, b in zip(row, col)) for col in factor] for row in factor],
        }
    return item


@st.composite
def _dataset_text(draw):
    """A dataset of every cell kind and mvn items, often with one thing
    changed as ``test_fuzz`` changes it: a value swapped, a list shortened,
    lengthened or emptied, or a key removed."""
    dim = draw(st.integers(1, 4))
    doc = {"dims": [f"d{j}" for j in range(dim)],
           "items": [draw(_dataset_item(dim)) for _ in range(draw(st.integers(1, 6)))]}
    if draw(st.integers(0, 2)):
        paths, stack = [], [((), doc)]
        while stack:
            path, node = stack.pop()
            paths.append(path)
            if isinstance(node, (dict, list)):
                keys = node if isinstance(node, dict) else range(len(node))
                stack += [(path + (k,), node[k]) for k in keys]
        path = draw(st.sampled_from(sorted(paths, key=repr)))
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        target = parent[path[-1]] if path else doc
        ops = ["swap"] + (["drop", "extra", "empty"] if isinstance(target, list) else [])
        ops += ["missing"] if isinstance(target, dict) and target else []
        op = draw(st.sampled_from(ops))
        if op == "swap":
            new = copy.deepcopy(draw(st.sampled_from(_DATASET_SWAPS)))
        elif op == "drop":
            new = target[:-1]
        elif op == "extra":
            new = target + [draw(st.sampled_from(_DATASET_SWAPS))]
        elif op == "empty":
            new = []
        else:
            new = dict(target)
            del new[draw(st.sampled_from(sorted(new)))]
        if not path:
            doc = new
        else:
            parent[path[-1]] = new
    return json.dumps(doc).replace(json.dumps(_DEEP), "[" * 1100 + "]" * 1100)


@settings(max_examples=500, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow])
@given(text=_dataset_text())
def test_load_dataset_agrees_with_the_item_by_item_reader(tmp_path, text):
    path = tmp_path / "ds.json"
    path.write_text(text, encoding="utf-8")
    assert _dataset_outcome(load_dataset, path) == _dataset_outcome(_reference_load_dataset, path)


@pytest.mark.parametrize("items", [
    # A bad cell ahead of a bad structure, and the reverse.
    [{"values": [{"interval": [2, 1]}]}, {"values": []}],
    [{"values": []}, {"values": [{"interval": [2, 1]}]}],
    # Overflow in a cube, a square and a sum; an unknown kind after a good item.
    [{"values": [{"number": 1}]}, {"values": [{"trapezoid": [0, 1, 2, 1e103]}]}],
    [{"values": [{"normal": {"mean": 0, "sd": 1e160}}]}],
    [{"values": [{"interval": [1e308, 1.7e308]}]}],
    [{"values": [{"number": 1}]}, {"values": [{"wavelet": 1}]}],
    [{"values": [{"normal": {"mean": 0, "sd": 1, "extra": 2}}]}],
    [{"values": [{"normal": [0, 1]}]}, {"values": [{"interval": {"a": 0, "b": 1}}]}],
    # A ragged or mistyped mvn after a good one, before a bad cell.
    [{"mvn": {"mean": [0], "cov": [[1]]}}, {"mvn": {"mean": [0], "cov": [[1, 2]]}},
     {"values": [{"number": "1"}]}],
    [{"mvn": {"mean": [0], "cov": [[1]]}}, {"values": [{"number": True}]},
     {"mvn": {"mean": [True], "cov": [[1]]}}],
    [{"mvn": {"mean": ["1"], "cov": [[1]]}}],
    [{"mvn": {"mean": [0], "cov": [[-1]]}}, {"values": [{"number": math.nan}]}],
    # A good cell before an overflowing cell of the same kind.
    [{"values": [{"interval": [0, 1]}]}, {"values": [{"interval": [0, 1e300]}]}],
    [{"values": [{"normal": {"mean": 0, "sd": 1}}]},
     {"values": [{"normal": {"mean": 0, "sd": 1e300}}]}],
    [{"values": [{"trapezoid": [0, 1, 2, 3]}]}, {"values": [{"trapezoid": [0, 1, 2, 2e103]}]}],
    # Two rejected cells; a bad mvn before a rejected cell.
    [{"values": [{"interval": [2, 1]}]}, {"values": [{"interval": [3, 1]}]}],
    [{"mvn": {"mean": [0], "cov": [[1, 2]]}}, {"values": [{"interval": [2, 1]}]}],
    # Out of order and overflowing: the order rule is worded, as the class words it.
    [{"values": [{"interval": [1e200, -1e200]}]}],
    [{"values": [{"trapezoid": [1e110, 0, 0, 0]}]}],
    # What orjson refuses or reads otherwise: a NaN in an ignored key, and
    # integers past 64 bits in a rejected cell, an accepted cell and an mvn.
    [{"note": math.nan, "values": [{"number": 1}]}],
    [{"values": [{"interval": [2**70, 10**300]}]}],
    [{"values": [{"interval": [-2**64, 2**70]}]}, {"values": [{"number": 10**300}]}],
    [{"mvn": {"mean": [-2**64], "cov": [[2**70]]}}],
    # Whole files: a BOM and CRLF line endings; a cell nested 1 000 deep, within
    # orjson's reach but past what json.dumps, wording its error, can recurse.
    '\ufeff{\r\n"dims": ["a"],\r\n"items": [{"values": [{"number": 1}]}]\r\n}\r\n',
    '{"dims": ["a"], "items": [{"values": [{"number": ' + "[" * 1000 + "]" * 1000 + '}]}]}',
])
def test_load_dataset_edge_cases_match_the_item_by_item_reader(tmp_path, items):
    path = tmp_path / "ds.json"
    text = items if isinstance(items, str) else json.dumps({"dims": ["a"], "items": items})
    path.write_bytes(text.encode("utf-8"))
    assert _dataset_outcome(load_dataset, path) == _dataset_outcome(_reference_load_dataset, path)


@st.composite
def _long_decimal(draw):
    """A finite decimal of 20 to 30 significant digits, as an integer or
    with a point and an exponent."""
    digits = str(draw(st.integers(10**19, 10**30 - 1)))
    point = draw(st.integers(1, len(digits)))
    text = draw(st.sampled_from(["", "-"])) + digits[:point]
    if point < len(digits):
        text += "." + digits[point:] + draw(st.sampled_from(["", "e-320", "e-300", "e-20", "e270"]))
    return text


@settings(max_examples=500, deadline=None, derandomize=True)
@given(text=st.one_of(st.floats(allow_nan=False, allow_infinity=False).map(repr),
                      _long_decimal()))
def test_orjson_reads_numbers_to_the_bits_json_gives(text):
    # load_dataset parses with orjson and takes each number's float().
    assert float(orjson.loads(text)).hex() == float(json.loads(text)).hex()


def test_a_loaded_dataset_keeps_none_of_the_parsed_file(tmp_path):
    # Cells are built from the table when items is read, so no list of the
    # parsed file, such as the trapezoid's, outlives load_dataset.
    corner = 3.0987654321
    doc = {"dims": ["a", "b"], "items": [
        {"values": [{"trapezoid": [0, 1, 2, corner]}, {"normal": {"mean": 0, "sd": 1}}]},
        {"mvn": {"mean": [0, 0], "cov": [[1, 0], [0, 1]]}},
        {"values": [{"interval": [0, 3]}, {"trapezoid": [0, 1, 2, 3]}]},
        {"values": [{"number": 1}, {"normal": {"mean": 2, "sd": 0.5}}]},
    ]}
    path = _write(tmp_path, "doc.json", json.dumps(doc))
    del doc
    ds = load_dataset(path)
    gc.collect()
    assert not [o for o in gc.get_objects()
                if type(o) is list and len(o) == 4 and type(o[3]) is float and o[3] == corner]
    assert len(ds.items) == 4
    assert _dataset_outcome(load_dataset, path) == _dataset_outcome(_reference_load_dataset, path)


_ONE_CELL = '{"dims": ["a"], %s"items": [{"values": [{%s}]}]}'


@pytest.mark.parametrize("collecting", [True, False])
@pytest.mark.parametrize("text, loads, steps", [
    (_ONE_CELL % ("", '"number": 1'), True, ["_dataset"]),
    (_ONE_CELL % ("", '"interval": [2, 1]'), False, ["_dataset", "_read_text", "_dataset"]),
    # Nested past _MAX_NESTING: json reads it, and fails past its recursion limit.
    (_ONE_CELL % ('"note": ' + "[" * 1100 + "]" * 1100 + ", ", '"number": 1'), False,
     ["_read_text"]),
], ids=["good", "rejected-cell", "json-fallback"])
def test_load_dataset_pauses_the_collector_and_puts_back_its_state(
        tmp_path, monkeypatch, text, loads, steps, collecting):
    # The parsed document holds no cycle, so it is read with the collector
    # paused; the caller's collector state is back on return or raise.
    seen = []

    def record(name):
        call = getattr(uapca.dataset_json, name)

        def note(*args):
            seen.append((name, gc.isenabled()))
            return call(*args)

        monkeypatch.setattr(uapca.dataset_json, name, note)

    record("_dataset")  # reads either parser's document
    record("_read_text")  # the json fallback's first step
    path = _write(tmp_path, "ds.json", text)
    was_enabled = gc.isenabled()
    try:
        (gc.enable if collecting else gc.disable)()
        try:
            loaded = load_dataset(path).dim == 1
        except DatasetFormatError:
            loaded = False
        assert gc.isenabled() is collecting
    finally:
        (gc.enable if was_enabled else gc.disable)()
    assert loaded is loads
    assert seen == [(name, False) for name in steps]


def test_loaded_cells_are_built_only_when_items_are_read(tmp_path, monkeypatch):
    calls = []
    for cls in (Number, Interval, Trapezoid, Normal1D):
        monkeypatch.setattr(cls, "__post_init__",
                            lambda self, check=cls.__post_init__: calls.append(self) or check(self))
    doc = {"dims": ["a", "b"], "items": [
        {"values": [{"number": 1}, {"interval": [0, 3]}]},
        {"mvn": {"mean": [0, 0], "cov": [[1, 0], [0, 1]]}},
    ]}
    ds = load_dataset(_write(tmp_path, "lazy.json", json.dumps(doc)))
    assert calls == []
    cells = ds.items[0].cells
    assert len(calls) == 2
    assert cells == (Number(1.0), Interval(0.0, 3.0))


def test_dataset_with_a_byte_order_mark_loads(tmp_path, students_path):
    path = tmp_path / "bom.json"
    path.write_bytes(b"\xef\xbb\xbf" + students_path.read_bytes())
    assert _dataset_outcome(load_dataset, path) == _dataset_outcome(load_dataset, students_path)
