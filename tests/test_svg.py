import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from uapca.dataset_json import load_dataset
from uapca.items import Gaussian, Point
from uapca.model import UncertainDataset
from uapca.sensitivity import EigenCurves, SweepSchedule, factor_traces, sweep
from uapca.svg import (
    PALETTE,
    SIZE,
    _CHUNK,
    _digit_tables,
    _encode,
    _fmt,
    _vertex_texts,
    eigencurves_svg_pieces,
    projection_svg_pieces,
    traces_svg_pieces,
)


def _students_traces(students_path, steps=8):
    ds = load_dataset(students_path)
    sched = SweepSchedule(steps=steps)
    models, curves = sweep(ds, q=2, schedule=sched)
    return factor_traces(models, sched), curves, ds.dim_names


def test_traces_svg_is_deterministic(students_path):
    traces, _, names = _students_traces(students_path)
    a = "".join(traces_svg_pieces(traces, names))
    b = "".join(traces_svg_pieces(traces, names))
    assert a == b
    assert a.startswith('<?xml version="1.0"')
    assert f'viewBox="0 0 {SIZE} {SIZE}"' in a
    assert a.endswith("</svg>\n")


def test_traces_svg_draws_both_orientations(students_path):
    traces, _, names = _students_traces(students_path)
    doc = "".join(traces_svg_pieces(traces, names))
    polylines = doc.count("<polyline")
    # One solid and one dashed polyline per moving axis.
    assert polylines == 2 * len(traces)
    assert doc.count('stroke-dasharray="5 4"') == len(traces)
    for name in names:
        assert f">{name}</text>" in doc
    # Unit circle guide.
    assert f'r="320.000"' in doc


def test_traces_svg_shades_the_interpolation_fan(students_path):
    traces, _, names = _students_traces(students_path)
    doc = "".join(traces_svg_pieces(traces, names))
    assert doc.count('fill-opacity="0.150"') == 2 * len(traces)


def test_static_trace_collapses_to_dot():
    pts = [np.array(p) for p in ([2.0, 0.0], [-2.0, 0.0], [0.0, 1.0], [0.0, -1.0])]
    ds = UncertainDataset(items=tuple(Point(p) for p in pts))
    sched = SweepSchedule(steps=8)
    models, _ = sweep(ds, q=2, schedule=sched)
    traces = factor_traces(models, sched)
    doc = "".join(traces_svg_pieces(traces, ds.dim_names))
    assert "<polyline" not in doc
    assert doc.count('r="4.000"') == 2 * len(traces)  # one dot per orientation


def test_traces_svg_validation(students_path):
    with pytest.raises(ValueError, match="no traces"):
        "".join(traces_svg_pieces([], ()))
    ds = load_dataset(students_path)
    sched = SweepSchedule(steps=4)
    models, _ = sweep(ds, q=3, schedule=sched)
    traces = factor_traces(models, sched)
    with pytest.raises(ValueError, match="q = 2"):
        "".join(traces_svg_pieces(traces, ds.dim_names))


def test_eigencurves_svg_layout(students_path):
    _, curves, _ = _students_traces(students_path, steps=12)
    doc = "".join(eigencurves_svg_pieces(curves))
    assert doc == "".join(eigencurves_svg_pieces(curves))
    assert doc.count("<polyline") == curves.values.shape[1]
    for tick in ("s=0", "s=1", "s=inf"):
        assert f">{tick}</text>" in doc
    assert "share of total variance" in doc


def test_eigencurves_svg_marks_flags():
    lam = np.array([[4.0, 1.0], [2.0, 1.9], [4.0, 1.0], [5.0, 1.0]])
    curves = EigenCurves(
        s_values=np.array([0.0, 0.5, 1.0, np.inf]),
        values=lam,
        avoided_crossing_flags=[(1, 0)],
    )
    doc = "".join(eigencurves_svg_pieces(curves))
    assert doc.count('stroke-dasharray="4 4"') == 1
    no_flags = "".join(eigencurves_svg_pieces(
        EigenCurves(s_values=curves.s_values, values=lam)
    ))
    assert 'stroke-dasharray="4 4"' not in no_flags


def test_eigencurves_svg_handles_zero_total_step():
    lam = np.array([[1.0, 0.5], [0.0, 0.0], [2.0, 1.0]])
    curves = EigenCurves(s_values=np.array([0.0, 1.0, np.inf]), values=lam)
    doc = "".join(eigencurves_svg_pieces(curves))
    assert "nan" not in doc


def _stacked(entries):
    """(Gaussian, label) pairs as the renderer's labels, means and covariances."""
    return (
        [label for _, label in entries],
        np.stack([g.mean() for g, _ in entries]),
        np.stack([g.cov() for g, _ in entries]),
    )


def test_projection_svg_layout():
    entries = [
        (Gaussian([0.0, 0.0], np.eye(2)), "a"),
        (Gaussian([3.0, 1.0], np.diag([2.0, 0.5])), "b"),
        (Gaussian([1.0, 4.0], np.eye(2) * 0.2), "a"),
    ]
    doc = "".join(projection_svg_pieces(*_stacked(entries)))
    assert doc == "".join(projection_svg_pieces(*_stacked(entries)))
    # 1 and 2 sigma outlines per item.
    assert doc.count("<polyline") == 2 * len(entries)
    assert doc.count('stroke-opacity="0.450"') == len(entries)
    # Item dots plus one legend dot per distinct label.
    assert doc.count("<circle") == len(entries) + 2
    assert ">a</text>" in doc and ">b</text>" in doc
    # Shared label means shared color, assigned in first-appearance order.
    assert doc.count(PALETTE[0]) > doc.count(PALETTE[1])


def test_projection_svg_zero_covariance_is_a_dot():
    entries = [
        (Gaussian([0.0, 0.0], np.zeros((2, 2))), "p"),
        (Gaussian([1.0, 1.0], np.eye(2)), "q"),
    ]
    doc = "".join(projection_svg_pieces(*_stacked(entries)))
    assert doc.count("<polyline") == 2  # only the nonzero item gets outlines


def test_projection_svg_of_points_only_has_no_outlines():
    entries = [(Gaussian([0.0, 0.0], np.zeros((2, 2))), "p"),
               (Gaussian([2.0, 1.0], np.zeros((2, 2))), "p")]
    doc = "".join(projection_svg_pieces(*_stacked(entries)))
    assert "<polyline" not in doc
    # The two means span the view: x from 70 to 730 at the centre height.
    assert '<circle cx="70.000" cy="565.000" r="3.500"' in doc
    assert '<circle cx="730.000" cy="235.000" r="3.500"' in doc


def _streamed(path, pieces) -> tuple[int, int]:
    """Traced peak bytes of writing pieces into a file, and the file's size."""
    tracemalloc.start()
    try:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.writelines(pieces)
            size = fh.tell()
        return tracemalloc.get_traced_memory()[1], size
    finally:
        tracemalloc.stop()


def test_streamed_projection_memory_does_not_grow_with_the_document(tmp_path):
    def streamed(n: int) -> tuple[int, int]:
        """Traced peak bytes of streaming n ellipses into a file, and the file's size."""
        rng = np.random.default_rng(n)
        a = rng.normal(size=(n, 2, 2))
        args = [f"k{i % 4}" for i in range(n)], rng.normal(size=(n, 2)), a @ a.swapaxes(1, 2)
        return _streamed(tmp_path / "p.svg", projection_svg_pieces(*args))

    streamed(10)  # the formatter's tables are built once, on first use
    (peak, size), (peak4, size4) = streamed(1000), streamed(4000)
    # Holding the whole document (its pieces or their join) costs at least
    # its size again; streamed, the peak grows by a small share of it.
    assert size4 - size > 6_000_000
    assert peak4 - peak < 0.1 * (size4 - size)


def test_projection_svg_of_1500_mixed_items_holds_under_900_kb(tmp_path):
    # 1 500 items in 6 labels, a fifth of them with zero covariance (a dot
    # alone), as many as the bench's project-items input: the outline chunk,
    # the formatting pass and the block each bound what the stream holds, a
    # small share of the 2.8 MB document.
    n = 1500
    rng = np.random.default_rng(n)
    a = rng.normal(size=(n, 2, 2))
    covs = a @ a.swapaxes(1, 2)
    covs[::5] = 0.0
    args = [f"g{i % 6 + 1}" for i in range(n)], rng.normal(3.0, 2.0, size=(n, 2)), covs
    _streamed(tmp_path / "p.svg", projection_svg_pieces(*args))  # first-use tables
    peak, size = _streamed(tmp_path / "p.svg", projection_svg_pieces(*args))
    assert size > 2_500_000
    assert peak < 900_000, peak


def test_projection_svg_validation():
    with pytest.raises(ValueError, match="nothing to render"):
        "".join(projection_svg_pieces([], np.empty((0, 2)), np.empty((0, 2, 2))))
    with pytest.raises(ValueError, match="q = 2"):
        "".join(projection_svg_pieces(*_stacked([(Gaussian(np.zeros(3), np.eye(3)), "x")])))
    # Fewer labels than items, and more: each a ValueError, not an
    # IndexError or legend entries for items that do not exist.
    _, means, covs = _stacked([(Gaussian([float(i), 0.0], np.eye(2)), "a") for i in range(3)])
    for labels in (["a", "b"], ["a", "b", "c", "d"]):
        with pytest.raises(ValueError, match=re.escape(
                f"{len(labels)} labels, means (3, 2), covs (3, 2, 2)")):
            "".join(projection_svg_pieces(labels, means, covs))


def test_negative_zero_never_appears(students_path):
    traces, curves, names = _students_traces(students_path)
    for pieces in (traces_svg_pieces(traces, names), eigencurves_svg_pieces(curves)):
        assert "-0.000" not in "".join(pieces)


def _ulps(x: float, n: int) -> float:
    """x moved n ulps up (n > 0) or down."""
    for _ in range(abs(n)):
        x = np.nextafter(x, np.inf if n > 0 else -np.inf)
    return float(x)


_ties = st.builds(lambda k, n: _ulps((2 * k + 1) / 2000, n),
                  st.integers(-10**10, 10**10), st.integers(-4, 4))
_edges = st.builds(lambda x, sign, n: sign * _ulps(x, n),
                   st.sampled_from([9999.9995, 9999.999, 10000.0, 1e4 - 5e-4, 99999999.9995]),
                   st.sampled_from([1.0, -1.0]), st.integers(-1, 1))
_specials = st.sampled_from([0.0, -0.0, -0.0004, 0.0005, -0.0005, 5e-324, -5e-324,
                             2.2250738585072009e-308, 2.0**49, 2.0**53 + 2.0, 9.3e15, -1e300,
                             1.7976931348623157e308])
_values = st.one_of(
    st.floats(-1e6, 1e6),
    _ties,
    _edges,
    _specials,
    st.integers(-10**20, 10**20).map(float),
    st.floats(-2.3e-308, 2.3e-308),
    st.floats(allow_nan=False, allow_infinity=False),
)


@settings(max_examples=400, deadline=None, derandomize=True)
@given(st.lists(_values, min_size=1, max_size=40), st.integers(1, 5))
def test_array_formatter_matches_percent_formatting(values, run):
    # Each piece is the fixed three-decimal text of its value, after its
    # lead word; with no lead words the texts are joined as they are.
    texts = [_fmt(v) for v in values]
    space = _digit_tables()[2][2]
    assert _encode(np.array(values), np.full(len(values), space)).split(" ")[1:] == texts
    assert _encode(np.array(values), np.zeros(len(values), dtype=int)) == "".join(texts)
    # Vertex lists: runs of `run` numbers read as "x,y x,y ...".
    sizes = [run] * (len(values) // run) + ([len(values) % run] if len(values) % run else [])
    expected, at = [], 0
    for size in sizes:
        nums = [_fmt(v) for v in values[at:at + size]]
        expected.append(" ".join(",".join(nums[i:i + 2]) for i in range(0, size, 2)))
        at += size
    assert list(_vertex_texts(np.array(values), sizes)) == expected


def test_vertex_texts_span_many_chunks():
    rings = np.random.default_rng(3).uniform(-50.0, 850.0, (100, 65, 2))
    texts = list(_vertex_texts(rings, np.full(100, 130)))
    assert texts == [" ".join(f"{_fmt(x)},{_fmt(y)}" for x, y in ring) for ring in rings]


def test_vertex_texts_match_percent_formatting_over_many_passes():
    # Rings of 130 numbers over many passes, one run longer than a pass (4 200
    # numbers, a trace polyline of 2 100 steps) and runs of odd length, which
    # shift the x, y parity of every run after them, more runs than a group
    # whose separator words are built at once.  Negative values, -0.0 and
    # exact %.3f ties (k/16) check the sign and separator words.
    sizes = [130] * 60 + [4200] + [1, 3, 130, 7, 2] * 12 + [130] * 60 + [3, 1, 2] * 1400 + [1]
    assert max(sizes) > _CHUNK and sum(sizes) > 4 * _CHUNK and len(sizes) > _CHUNK
    values = np.random.default_rng(13).uniform(-900.0, 900.0, sum(sizes))
    specials = [-0.0, 0.0, 0.0625, -0.1875, -2.5625, 0.0005, -0.0005, -0.0004, -9999.9995,
                -12345.6785]
    values[::61][:len(specials) * 20] = specials * 20
    values[-1] = -0.0  # a one-number run, alone at the end
    expected, at = [], 0
    for size in sizes:
        nums = [_fmt(v) for v in values[at:at + size].tolist()]
        expected.append(" ".join(",".join(nums[i:i + 2]) for i in range(0, size, 2)))
        at += size
    assert list(_vertex_texts(values, sizes)) == expected


def test_number_texts_match_percent_formatting_over_chunks():
    # Single numbers, such as dot centres, are one-value runs.  -0.0, exact
    # %.3f ties (k/16) and values past the first 4-digit group, spread over
    # four chunks.
    specials = [0.0, -0.0, 0.0625, -0.1875, 2.5625, 0.0005, -0.0005, 9999.9995, 1e4,
                -12345.6785, 3.0e7, 2.0**49, -1e20]
    values = np.random.default_rng(5).uniform(-900.0, 900.0, 3 * _CHUNK + 1)
    values[:1000 * len(specials):1000] = specials
    values[-1] = -0.0  # alone in the last chunk
    texts = list(_vertex_texts(values, np.ones(len(values), np.int64)))
    assert texts == [_fmt(v) for v in values.tolist()]


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_array_formatter_rejects_non_finite_values(bad):
    with pytest.raises(ValueError, match="non-finite"):
        _encode(np.array([1.0, bad]), np.zeros(2, dtype=int))
