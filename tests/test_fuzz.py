"""Schema fuzzer: every mutated input ends in exit 0, 1 or 2, and never in a
traceback, a stray warning, a multi-line error or a non-finite output.

Each example starts from a valid dataset JSON or points CSV and changes one
thing: a value swapped for another type, NaN, +-Inf or an extreme
magnitude, an array made ragged or empty, or a key removed.
"""

import contextlib
import copy
import csv
import io
import json
import math
import re
import warnings

from hypothesis import given, settings
from hypothesis import strategies as st

from uapca.cli import main

_DATASET = {
    "dims": ["a", "b", "c"],
    "items": [
        {"label": "p", "weight": 2.0,
         "values": [{"number": 1.0}, {"interval": [0.0, 2.0]}, {"trapezoid": [0, 1, 2, 4]}]},
        {"label": "q", "values": [{"normal": {"mean": -1.0, "sd": 0.5}}, {"number": 3},
                                  {"interval": [1, 1.5]}]},
        {"label": "r", "weight": 1,
         "mvn": {"mean": [0.5, -0.5, 2.0],
                 "cov": [[1.0, 0.2, 0.0], [0.2, 2.0, 0.1], [0.0, 0.1, 0.5]]}},
        {"mvn": {"mean": [2, 1, 0], "cov": [[0.5, 0, 0], [0, 0.5, 0], [0, 0, 0.5]]}},
    ],
}
_CSV = [["a", "b", "c", "label"], ["1.0", "2.0", "0.5", "x"], ["3.0", "-1.0", "1.5", "x"],
        ["0.5", "0.0", "2.5", "y"], ["-2.0", "1.0", "1.0", "y"], ["1.5", "4.0", "-1.0", "y"]]

# One-value replacements: type swaps, non-finite values and extreme magnitudes.
_SWAPS = ["7", "x", True, False, None, [], [1.0], {}, {"k": 1},
          math.nan, math.inf, -math.inf, 1e300, -1e300, 1e-300, 1.3e154, -1.3e154, 10**400]
_CELL_SWAPS = ["x", "7", "true", "", "[1]", "{}", "nan", "inf", "-inf",
               "1e300", "-1e300", "1e-300", "1.3e154", "-1.3e154", "1e400"]

_JSON_RUNS = [["project"], ["project", "--standardize"], ["project", "--scale", "inf"],
              ["trace", "--steps", "5"]]
_CSV_RUNS = [["project", "--points"], ["project", "--points", "--standardize"],
             ["project", "--points", "--scale", "inf"],
             ["project", "--points", "--aggregate-by", "label"],
             ["project", "--points", "--aggregate-by", "label", "--cluster-kind", "empirical"]]


def _paths(node, path=()):
    """Every node of a JSON document, as the key path that reaches it."""
    yield path
    if isinstance(node, (dict, list)):
        for key, child in node.items() if isinstance(node, dict) else enumerate(node):
            yield from _paths(child, path + (key,))


@st.composite
def _mutated_dataset(draw):
    doc = copy.deepcopy(_DATASET)
    path = draw(st.sampled_from(list(_paths(doc))))
    node = doc
    for key in path[:-1]:
        node = node[key]
    target = node[path[-1]] if path else doc
    ops = ["swap"]
    if isinstance(target, list):
        ops += ["drop", "extra", "empty"]
    if isinstance(target, dict) and target:
        ops.append("missing")
    op = draw(st.sampled_from(ops))
    if op == "swap":
        new = draw(st.sampled_from(_SWAPS))
    elif op == "drop":
        new = target[:-1]
    elif op == "extra":
        new = target + [draw(st.sampled_from(_SWAPS))]
    elif op == "empty":
        new = []
    else:
        new = dict(target)
        del new[draw(st.sampled_from(sorted(new)))]
    if not path:
        return json.dumps(new)
    node[path[-1]] = new
    return json.dumps(doc)


@st.composite
def _mutated_points(draw):
    rows = [list(r) for r in _CSV]
    r = draw(st.integers(0, len(rows) - 1))
    op = draw(st.sampled_from(["swap", "drop", "extra", "empty", "missing_header"]))
    if op == "swap":
        rows[r][draw(st.integers(0, len(rows[r]) - 1))] = draw(st.sampled_from(_CELL_SWAPS))
    elif op == "drop":
        rows[r].pop(draw(st.integers(0, len(rows[r]) - 1)))
    elif op == "extra":
        rows[r].append(draw(st.sampled_from(_CELL_SWAPS)))
    elif op == "empty":
        rows = rows[:1] if r else []
    else:
        rows = rows[1:]
    out = io.StringIO()
    csv.writer(out, lineterminator="\n").writerows(rows)
    return out.getvalue()


def _non_finite(text: str) -> bool:
    return bool(re.search(r"\b(nan|inf)\b", text, re.IGNORECASE))


def _check_runs(tmp_path, name, text, runs):
    data = tmp_path / name
    data.write_text(text, encoding="utf-8")
    for run in runs:
        out_dir = tmp_path / "out"
        out_dir.mkdir(exist_ok=True)
        for old in out_dir.iterdir():
            old.unlink()
        stdout, stderr = io.StringIO(), io.StringIO()
        with warnings.catch_warnings(record=True) as caught, \
                contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            warnings.simplefilter("always")
            code = main([*run, "--input", str(data), "--out-prefix", str(out_dir / "o")])
        context = (run, text)
        assert not caught, (context, [str(w.message) for w in caught])
        assert code in (0, 1, 2), context
        if code:
            lines = stderr.getvalue().splitlines()
            assert len(lines) == 1 and lines[0].startswith("uapca: error:"), (context, lines)
            continue
        # The sweep's grid ends at s = inf by design; every other number is data.
        summary = [line for line in stdout.getvalue().splitlines()
                   if not line.startswith("wrote ")]
        assert not _non_finite(re.sub(r"s=inf\b", "", "\n".join(summary))), (context, summary)
        for path in out_dir.glob("*.csv"):
            with path.open(encoding="utf-8") as fh:
                for row in csv.DictReader(fh):
                    for column, value in row.items():
                        if column not in ("label", "axis", "orientation", "s"):
                            assert math.isfinite(float(value)), (context, path.name, row)
        for path in out_dir.glob("*.svg"):
            svg = path.read_text(encoding="utf-8")
            assert not re.search(r'="[^"]*\b(nan|inf)\b', svg, re.IGNORECASE), (context, path)


@settings(max_examples=600, deadline=None, derandomize=True)
@given(text=_mutated_dataset())
def test_mutated_dataset_json_ends_cleanly(tmp_path_factory, text):
    _check_runs(tmp_path_factory.mktemp("json"), "data.json", text, _JSON_RUNS)


@settings(max_examples=600, deadline=None, derandomize=True)
@given(text=_mutated_points())
def test_mutated_points_csv_ends_cleanly(tmp_path_factory, text):
    _check_runs(tmp_path_factory.mktemp("csv"), "points.csv", text, _CSV_RUNS)
