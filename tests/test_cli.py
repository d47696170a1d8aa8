import csv
import errno
import gc
import hashlib
import io
import json
import os
import re
import subprocess
import sys
import xml.dom.minidom
from pathlib import Path

import numpy as np
import pytest
from conftest import random_psd

import uapca.cli
import uapca.io
import uapca.metrics
import uapca.svg
from uapca.cli import main
from uapca.cov import global_cov
from uapca.dataset_json import load_dataset
from uapca.eigen import eig_sym, select_components
from uapca.io import load_points
from uapca.project import project_items
from uapca.sensitivity import SweepSchedule, factor_traces, sweep


def _read_lines(path):
    return path.read_text(encoding="utf-8").splitlines()


def test_project_writes_csv_and_svg(tmp_path, students_path, capsys):
    prefix = tmp_path / "out"
    code = main(["project", "--input", str(students_path), "--out-prefix", str(prefix)])
    assert code == 0
    out = capsys.readouterr().out
    assert out.startswith("eigenvalues: ")
    assert "wrote" in out
    lines = _read_lines(tmp_path / "out.projection.csv")
    assert lines[0] == "label,mean_1,mean_2,cov_1_1,cov_1_2,cov_2_1,cov_2_2"
    assert len(lines) == 7
    assert lines[1].startswith("Tom,")
    svg = (tmp_path / "out.projection.svg").read_text(encoding="utf-8")
    assert svg.startswith('<?xml version="1.0"')


def test_project_higher_dims_skips_svg(tmp_path, students_path, capsys):
    prefix = tmp_path / "wide"
    code = main([
        "project", "--input", str(students_path),
        "--dims", "4", "--out-prefix", str(prefix),
    ])
    assert code == 0
    assert (tmp_path / "wide.projection.csv").exists()
    assert not (tmp_path / "wide.projection.svg").exists()


def test_project_dims_out_of_range(tmp_path, students_path, capsys):
    code = main([
        "project", "--input", str(students_path),
        "--dims", "5", "--out-prefix", str(tmp_path / "x"),
    ])
    assert code == 2
    assert "out of range" in capsys.readouterr().err


def test_project_points_and_aggregation(tmp_path, iris_path, capsys):
    plain = tmp_path / "plain"
    code = main([
        "project", "--input", str(iris_path), "--points", "--out-prefix", str(plain),
    ])
    assert code == 0
    assert len(_read_lines(tmp_path / "plain.projection.csv")) == 151

    agg = tmp_path / "agg"
    code = main([
        "project", "--input", str(iris_path), "--points",
        "--aggregate-by", "label", "--out-prefix", str(agg),
    ])
    assert code == 0
    lines = _read_lines(tmp_path / "agg.projection.csv")
    assert len(lines) == 4
    assert [row.split(",")[0] for row in lines[1:]] == ["setosa", "versicolor", "virginica"]

    # Classes have one summary, their moments; there is no kind to choose.
    with pytest.raises(SystemExit) as exc:
        main(["project", "--input", str(iris_path), "--points", "--aggregate-by", "label",
              "--cluster-kind", "empirical", "--out-prefix", str(tmp_path / "emp")])
    assert exc.value.code == 2
    assert "unrecognized arguments: --cluster-kind" in capsys.readouterr().err


def test_project_points_shifted_by_1e8_match_unshifted(tmp_path, iris_path, capsys):
    rows = [line.split(",") for line in _read_lines(iris_path)]
    shifted = tmp_path / "shifted.csv"
    shifted.write_text(
        "\n".join([",".join(rows[0])] + [
            ",".join([repr(float(v) + 1e8) for v in row[:-1]] + row[-1:]) for row in rows[1:]
        ]) + "\n",
        encoding="utf-8",
    )
    for name, path in (("plain", iris_path), ("shifted", shifted)):
        assert main(["project", "--input", str(path), "--points",
                     "--out-prefix", str(tmp_path / name)]) == 0
    plain = [r.split(",") for r in _read_lines(tmp_path / "plain.projection.csv")]
    moved = [r.split(",") for r in _read_lines(tmp_path / "shifted.projection.csv")]
    assert [r[0] for r in moved] == [r[0] for r in plain]
    a = np.array([[float(v) for v in r[1:]] for r in plain[1:]])
    b = np.array([[float(v) for v in r[1:]] for r in moved[1:]])
    # Reading x + 1e8 rounds each coordinate by up to ulp(1e8)/2, and the
    # column mean adds as much again, so each centred coordinate is off by at
    # most one ulp(1e8).  A unit component sums 4 such errors with |a|_1 <= 2,
    # giving 2 ulp; the bound allows 4x that for the basis turning with K.
    assert np.abs(b - a).max() <= 8 * np.spacing(1e8)
    assert np.array_equal(b[:, 2:], a[:, 2:])  # points project to zero covariance


def test_project_standardize_points(tmp_path, iris_path):
    code = main([
        "project", "--input", str(iris_path), "--points", "--standardize",
        "--out-prefix", str(tmp_path / "z"),
    ])
    assert code == 0


def test_aggregate_flag_validation(tmp_path, students_path, iris_path, capsys):
    code = main([
        "project", "--input", str(iris_path), "--points",
        "--aggregate-by", "species", "--out-prefix", str(tmp_path / "x"),
    ])
    assert code == 2
    assert "'label'" in capsys.readouterr().err

    code = main([
        "project", "--input", str(students_path),
        "--aggregate-by", "label", "--out-prefix", str(tmp_path / "x"),
    ])
    assert code == 2
    assert "requires --points" in capsys.readouterr().err


def test_missing_and_malformed_inputs(tmp_path, capsys):
    code = main([
        "project", "--input", str(tmp_path / "nope.json"),
        "--out-prefix", str(tmp_path / "x"),
    ])
    assert code == 1

    bad = tmp_path / "bad.json"
    bad.write_text("{", encoding="utf-8")
    code = main(["project", "--input", str(bad), "--out-prefix", str(tmp_path / "x")])
    assert code == 1
    assert "invalid JSON" in capsys.readouterr().err


def test_standardize_names_a_flat_column_by_its_header(tmp_path, capsys):
    flat = tmp_path / "flat.csv"
    flat.write_text("w,x,y\n1.0,2.0,3.0\n4.0,2.0,5.0\n0.5,2.0,1.0\n", encoding="utf-8")
    code = main(["project", "--input", str(flat), "--points", "--standardize",
                 "--out-prefix", str(tmp_path / "x")])
    assert code == 1
    assert capsys.readouterr().err.splitlines() == [
        "uapca: error: column 'x' has zero variance; cannot standardize"
    ]


def test_unwritable_output_exits_1(tmp_path, students_path, capsys):
    code = main([
        "project", "--input", str(students_path),
        "--out-prefix", str(tmp_path / "missing" / "dir" / "x"),
    ])
    assert code == 1


def test_bad_flag_values_exit_2(tmp_path, students_path):
    with pytest.raises(SystemExit) as exc:
        main(["project", "--input", str(students_path),
              "--scale", "-1", "--out-prefix", str(tmp_path / "x")])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["trace", "--input", str(students_path),
              "--steps", "1", "--out-prefix", str(tmp_path / "x")])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["compare-sampling", "--dims", "12..2", "--out", str(tmp_path / "x.csv")])
    assert exc.value.code == 2


def test_scale_zero_matches_plain_point_pca(tmp_path, students_path, capsys):
    ds = load_dataset(students_path)
    header = ",".join(ds.dim_names) + ",label"
    rows = [
        ",".join([repr(float(v)) for v in mean] + [ds.labels[i]])
        for i, mean in enumerate(ds.means())
    ]
    means_csv = tmp_path / "means.csv"
    means_csv.write_text(header + "\n" + "\n".join(rows) + "\n", encoding="utf-8")

    assert main(["project", "--input", str(students_path), "--scale", "0",
                 "--out-prefix", str(tmp_path / "a")]) == 0
    assert main(["project", "--input", str(means_csv), "--points",
                 "--out-prefix", str(tmp_path / "b")]) == 0
    for suffix in (".projection.csv", ".projection.svg"):
        assert (tmp_path / f"a{suffix}").read_bytes() == (tmp_path / f"b{suffix}").read_bytes()


def test_trace_writes_four_files(tmp_path, students_path, capsys):
    prefix = tmp_path / "sweep"
    code = main([
        "trace", "--input", str(students_path),
        "--steps", "16", "--out-prefix", str(prefix),
    ])
    assert code == 0
    for name in ("sweep.traces.csv", "sweep.eigvals.csv", "sweep.traces.svg", "sweep.eigvals.svg"):
        assert (tmp_path / name).exists()
    out = capsys.readouterr().out
    assert "wrote" in out
    assert ("avoided crossing flagged" in out) or ("no avoided crossings flagged" in out)


def test_trace_limit_is_dominated_by_the_noisiest_axis(tmp_path, students_path):
    # The P1 grades carry by far the widest uncertainty, so at the s -> inf
    # end of the sweep that axis must align with the leading component.
    prefix = tmp_path / "sweep"
    steps = 32
    assert main(["trace", "--input", str(students_path),
                 "--steps", str(steps), "--out-prefix", str(prefix)]) == 0
    lines = _read_lines(tmp_path / "sweep.traces.csv")
    last = [
        row.split(",") for row in lines[1:]
        if row.split(",")[0] == str(steps - 1) and row.split(",")[3] == "+"
    ]
    by_axis = {row[2]: (float(row[4]), float(row[5])) for row in last}
    assert np.hypot(*by_axis["P1"]) > 0.9
    # Dominance along the leading component: P1 owns the x coordinate.
    assert abs(by_axis["P1"][0]) > 0.9
    for axis in ("M1", "M2", "P2"):
        assert abs(by_axis[axis][0]) < abs(by_axis["P1"][0])


def test_trace_rejects_non_planar_dims(tmp_path, students_path, capsys):
    code = main([
        "trace", "--input", str(students_path),
        "--dims", "3", "--out-prefix", str(tmp_path / "x"),
    ])
    assert code == 2
    assert "--dims 2" in capsys.readouterr().err


def test_trace_rejects_univariate_data(tmp_path, capsys):
    doc = {"dims": ["a"], "items": [{"values": [{"number": 1}]}, {"values": [{"number": 2}]}]}
    path = tmp_path / "one.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    code = main(["trace", "--input", str(path), "--out-prefix", str(tmp_path / "x")])
    assert code == 2


def test_compare_sampling_writes_csv(tmp_path, capsys, monkeypatch):
    monkeypatch.delenv("UAPCA_SEED", raising=False)
    out = tmp_path / "exp.csv"
    code = main([
        "compare-sampling", "--dims", "2,3", "--runs", "3",
        "--samples", "8,32", "--items", "4", "--out", str(out),
    ])
    assert code == 0
    lines = _read_lines(out)
    assert lines[0] == "dim,samples,median_hellinger,runs,seed"
    assert len(lines) == 5
    assert lines[1].split(",")[:2] == ["2", "8"]
    stdout = capsys.readouterr().out
    assert stdout.count("dim ") == 2
    assert f"wrote {out}" in stdout


def test_compare_sampling_seed_env_override(tmp_path, capsys, monkeypatch):
    out = tmp_path / "exp.csv"
    args = ["compare-sampling", "--dims", "2", "--runs", "2",
            "--samples", "8", "--items", "3", "--out", str(out)]
    monkeypatch.setenv("UAPCA_SEED", "7")
    assert main(args) == 0
    assert _read_lines(out)[1].split(",")[-1] == "7"

    monkeypatch.setenv("UAPCA_SEED", "not-a-seed")
    assert main(args) == 2
    assert "UAPCA_SEED" in capsys.readouterr().err


def test_negative_seed_is_a_usage_error(tmp_path, capsys, monkeypatch):
    out = tmp_path / "x.csv"
    args = ["compare-sampling", "--dims", "2", "--runs", "1", "--samples", "4",
            "--items", "2", "--out", str(out)]
    monkeypatch.delenv("UAPCA_SEED", raising=False)
    with pytest.raises(SystemExit) as exc:
        main([*args, "--seed", "-1"])
    assert exc.value.code == 2
    errors = [line for line in capsys.readouterr().err.splitlines() if "error:" in line]
    assert len(errors) == 1 and "--seed must be >= 0, got -1" in errors[0], errors

    monkeypatch.setenv("UAPCA_SEED", "-3")
    assert main(args) == 2
    assert capsys.readouterr().err.splitlines() == [
        "uapca: error: UAPCA_SEED must be a non-negative integer, got '-3'"]
    assert not out.exists()


def test_compare_sampling_rejects_unordered_counts(tmp_path, capsys, monkeypatch):
    monkeypatch.delenv("UAPCA_SEED", raising=False)
    code = main([
        "compare-sampling", "--dims", "2", "--samples", "64,16",
        "--out", str(tmp_path / "x.csv"),
    ])
    assert code == 2
    assert "strictly increasing" in capsys.readouterr().err


def test_compare_sampling_rejects_a_count_past_the_int64_range(tmp_path, capsys, monkeypatch):
    # N (n - 1) degrees of freedom must fit the int64 the chi-square draw takes.
    monkeypatch.delenv("UAPCA_SEED", raising=False)
    out = tmp_path / "x.csv"
    code = main(["compare-sampling", "--dims", "2", "--runs", "1",
                 "--samples", "100000000000000000000", "--out", str(out)])
    err = capsys.readouterr().err
    assert code == 2
    assert err.count("\n") == 1 and err.startswith("uapca: error: sample count ")
    assert not out.exists()


def test_compare_sampling_csv_bytes_are_pinned(tmp_path, capsys, monkeypatch):
    # Recorded from the moment route with per-cell streams: each (seed, dim,
    # samples) cell draws its passes' item sample means and Wishart normals
    # from one generator and their chi-squares from another; any change to
    # the draws or their order moves these bytes.
    monkeypatch.delenv("UAPCA_SEED", raising=False)
    out = tmp_path / "pin.csv"
    code = main([
        "compare-sampling", "--dims", "2,5", "--runs", "4",
        "--samples", "16,256", "--seed", "3", "--out", str(out),
    ])
    assert code == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == (
        "acedf34fd89ad54e761749047a94e2dc8f6567fad7fcadb5b897afffbb8f2ea4"
    )


def test_compare_sampling_writes_its_csv_whole_or_not_at_all(tmp_path, capsys, monkeypatch):
    monkeypatch.delenv("UAPCA_SEED", raising=False)
    argv = ["compare-sampling", "--dims", "2", "--runs", "2", "--samples", "8", "--items", "3"]
    out = tmp_path / "out"
    out.mkdir()
    (out / "dir.csv").mkdir()
    assert main([*argv, "--out", str(out / "dir.csv")]) == 1
    assert capsys.readouterr().err.splitlines() == [
        f"uapca: error: [Errno {errno.EISDIR}] {os.strerror(errno.EISDIR)}: "
        f"{str(out / 'dir.csv')!r}"]
    assert [p.name for p in out.iterdir()] == ["dir.csv"]
    assert list((out / "dir.csv").iterdir()) == []

    # A write that fails part way keeps the old file byte for byte.
    (out / "old.csv").write_text("old csv\n", encoding="utf-8")

    def fail_part_way(path, rows):
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("dim,samples,")
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

    monkeypatch.setattr(uapca.io, "write_experiment_csv", fail_part_way)
    assert main([*argv, "--out", str(out / "old.csv")]) == 1
    assert capsys.readouterr().err.splitlines() == [
        f"uapca: error: [Errno {errno.ENOSPC}] {os.strerror(errno.ENOSPC)}"]
    assert sorted(p.name for p in out.iterdir()) == ["dir.csv", "old.csv"]
    assert (out / "old.csv").read_text(encoding="utf-8") == "old csv\n"


def test_out_of_memory_is_a_one_line_error(tmp_path, capsys, monkeypatch):
    monkeypatch.delenv("UAPCA_SEED", raising=False)

    def exhausted(cfg):
        raise MemoryError("Unable to allocate 16.0 TiB for an array")

    monkeypatch.setattr(uapca.metrics, "run_convergence_experiment", exhausted)
    code = main(["compare-sampling", "--dims", "2", "--runs", "1",
                 "--out", str(tmp_path / "x.csv")])
    assert code == 1
    err = capsys.readouterr().err
    assert err.splitlines() == [
        "uapca: error: out of memory: Unable to allocate 16.0 TiB for an array"
    ]
    assert "Traceback" not in err


def test_cli_import_leaves_the_worker_pool_unloaded():
    # compare-sampling runs every pass in the CLI process, so neither
    # concurrent.futures nor multiprocessing adds to the start-up of any
    # command.
    result = subprocess.run(
        [sys.executable, "-c",
         "import uapca.cli, sys\n"
         "print([m for m in ('concurrent.futures', 'multiprocessing') if m in sys.modules])"],
        capture_output=True, text=True,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "[]"


def test_cli_import_builds_no_digit_table():
    # The SVG formatter's digit tables are built on first use, so start-up
    # time and memory do not carry them.
    result = subprocess.run(
        [sys.executable, "-c",
         "import uapca.cli, uapca.svg; print(uapca.svg._digit_tables.cache_info().currsize)"],
        capture_output=True, text=True,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "0"


def test_module_entry_point(tmp_path, students_path):
    result = subprocess.run(
        [sys.executable, "-m", "uapca", "project",
         "--input", str(students_path), "--out-prefix", str(tmp_path / "m")],
        capture_output=True, text=True,
    )
    assert result.returncode == 0
    assert result.stdout.startswith("eigenvalues: ")

    result = subprocess.run(
        [sys.executable, "-m", "uapca", "project", "--input", str(students_path)],
        capture_output=True, text=True,
    )
    assert result.returncode == 2


_PINNED_DATASET = {
    "dims": ["a", "b", "c"],
    "items": [
        {"label": "g1", "weight": 2.5,
         "mvn": {"mean": [1.0, -2.0, 0.5], "cov": [[2.0, 0.3, 0.1], [0.3, 1.0, -0.2],
                                                    [0.1, -0.2, 0.5]]}},
        {"label": "g2", "weight": 0.75,
         "mvn": {"mean": [-3.0, 1.5, 2.0], "cov": [[0.5, -0.4, 0.0], [-0.4, 1.5, 0.2],
                                                    [0.0, 0.2, 0.8]]}},
        {"label": "cells", "weight": 1.5,
         "values": [{"number": 4.0}, {"interval": [-1.0, 3.0]},
                    {"trapezoid": [0.0, 1.0, 2.5, 4.0]}]},
        {"label": "cells", "weight": 3.0,
         "values": [{"normal": {"mean": 0.5, "sd": 1.2}}, {"number": -2.5},
                    {"interval": [1.0, 1.5]}]},
        {"label": "fixed", "weight": 1.25,
         "mvn": {"mean": [2.0, 2.0, -1.0], "cov": [[0.0, 0.0, 0.0], [0.0, 0.0, 0.0],
                                                   [0.0, 0.0, 0.0]]}},
    ],
}


def test_project_output_bytes_are_pinned(tmp_path, capsys):
    # Recorded before the ellipses were drawn from one stacked eigensolve;
    # batching the outlines and the pixel mapping must not move a bit.
    data = tmp_path / "pin.json"
    data.write_text(json.dumps(_PINNED_DATASET), encoding="utf-8")
    prefix = tmp_path / "pin"
    code = main(["project", "--input", str(data), "--dims", "2", "--out-prefix", str(prefix)])
    assert code == 0
    digest = {
        ext: hashlib.sha256((tmp_path / f"pin.projection.{ext}").read_bytes()).hexdigest()
        for ext in ("csv", "svg")
    }
    assert digest == {
        "csv": "4001dbd11c550fcfb613560dee4423382ded91391507108f7c16c7a1cdf7756e",
        "svg": "c3348ca98028fd464e1fd2ec8a19990d213c796a5a11af2ab37a3b40b9b36ec3",
    }


def _write_pinned_points(path) -> None:
    """4 100 seeded rows of three columns and a label, written with repr: the
    projection CSV spans two write passes and the dots several SVG chunks."""
    rng = np.random.default_rng(2019)
    labels = rng.integers(3, size=4100)
    points = rng.normal(size=(4100, 3)) * [1.0, 3.0, 0.5] + labels[:, None]
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("a,b,c,label\n")
        for row, label in zip(points.tolist(), labels.tolist()):
            fh.write(",".join(map(repr, row)) + f",k{label}\n")


def test_project_points_output_bytes_are_pinned(tmp_path, capsys):
    # Recorded while the points file was still parsed twice, every CSV cell
    # went through repr and each dot centre was cut from the text on its own.
    data = tmp_path / "pin.csv"
    _write_pinned_points(data)
    prefix = tmp_path / "pin"
    code = main(["project", "--points", "--input", str(data), "--dims", "2",
                 "--out-prefix", str(prefix)])
    assert code == 0
    digest = {
        ext: hashlib.sha256((tmp_path / f"pin.projection.{ext}").read_bytes()).hexdigest()
        for ext in ("csv", "svg")
    }
    assert digest == {
        "csv": "d31062b977f63762ee470f84cccb7c0c741465e0b0d359de199e0fe9c3d36586",
        "svg": "e3eef366c0ede97fa1ce13921efd1eb7e5496e1193bada2f46555ae15be5ff3a",
    }


def test_project_aggregated_iris_bytes_are_pinned(tmp_path, iris_path, capsys):
    # Recorded while each class was still built as an item and read back;
    # writing the class moments straight into the table must not move a bit.
    code = main(["project", "--points", "--input", str(iris_path), "--aggregate-by", "label",
                 "--out-prefix", str(tmp_path / "pin")])
    assert code == 0
    digest = {
        ext: hashlib.sha256((tmp_path / f"pin.projection.{ext}").read_bytes()).hexdigest()
        for ext in ("csv", "svg")
    }
    assert digest == {
        "csv": "8d9db0c130cf06723a5e505020dcaad5781f5d498d3bbc436223245b08a3fcc8",
        "svg": "2755892addd5a9ff884b5d8b1f5f47572a6a65f32719808f1f59b94117ea10f9",
    }


_PSI = [[0.05, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 0.3]]
_PINNED_SWEEP = {
    "dims": ["a", "b", "c"],
    "items": [
        {"label": "p", "mvn": {"mean": [1.4072, 0.1412, 0.0], "cov": _PSI}},
        {"label": "q", "mvn": {"mean": [-1.4072, -0.1412, 0.0], "cov": _PSI}},
        {"label": "r", "weight": 1.5, "mvn": {"mean": [-0.0773, 0.7707, 0.0], "cov": _PSI}},
        {"label": "s", "weight": 0.5,
         "values": [{"normal": {"mean": 0.0773, "sd": 0.2236}}, {"interval": [-2.5, 0.96]},
                    {"trapezoid": [-1.0, -0.2, 0.2, 1.0]}]},
    ],
}


def test_trace_output_bytes_are_pinned(tmp_path, capsys):
    # Recorded before the trace renderers moved to the array formatter and
    # before the sign alignment became one array pass; neither may move a bit.
    data = tmp_path / "sweep.json"
    data.write_text(json.dumps(_PINNED_SWEEP), encoding="utf-8")
    code = main(["trace", "--input", str(data), "--steps", "33",
                 "--out-prefix", str(tmp_path / "pin")])
    assert code == 0
    assert "avoided crossing flagged between components 1 and 2" in capsys.readouterr().out
    digest = {
        name: hashlib.sha256((tmp_path / f"pin.{name}").read_bytes()).hexdigest()
        for name in ("traces.csv", "eigvals.csv", "traces.svg", "eigvals.svg")
    }
    assert digest == {
        "traces.csv": "e9e365ffc736c655dc9870a2c10de85e8e48d3a48df9a52c7a0d762ab187e494",
        "eigvals.csv": "7ecda60947ae09bfd824d9e7c737c83fca0b8b6520867acf786aa599dbdf5714",
        "traces.svg": "c09b937c5dd49eb0785f6240950ab7f9faa350ec5eec04b47cb49a798246f19e",
        "eigvals.svg": "fb6762e01917b8a22ae9410ebb59db76de63c4ffea867bcbca8422b4c2c931c1",
    }


# Axes whose spreads put values below 1e-4 and at or above 1e16, exact
# zeros and negatives in the projection and trace CSVs.
_LAYOUT_DATASET = {
    "dims": ["huge", "tiny", "mid"],
    "items": [
        {"label": "a", "values": [{"number": 3e9}, {"number": 2e-3}, {"number": 1.0}]},
        {"label": "b", "values": [{"normal": {"mean": -2e9, "sd": 5e8}},
                                  {"interval": [-1e-3, 1e-3]}, {"number": -2.0}]},
        {"label": "c", "weight": 2.0,
         "mvn": {"mean": [5e8, -4e-3, 0.5],
                 "cov": [[1e17, 0.0, 0.0], [0.0, 1e-6, 0.0], [0.0, 0.0, 0.25]]}},
        {"label": "d", "values": [{"trapezoid": [-1e9, -5e8, 5e8, 1e9]}, {"number": 0.0},
                                  {"normal": {"mean": 3.0, "sd": 0.5}}]},
        {"label": "e", "mvn": {"mean": [0.0, 0.0, -1.0],
                               "cov": [[0.0, 0.0, 0.0], [0.0, 1e-12, 0.0], [0.0, 0.0, 1e-12]]}},
    ],
}


_LAYOUT_POINTS = """huge,tiny,mid,label
3e16,2e-3,1.0,a
-3e16,-2e-3,-1.0,a
1e16,-4e-3,2.0,b
-1e16,4e-3,-2.0,b
1e-6,1e-9,1e-7,c
"""
_POINTS_FORMS = {"points": [], "aggregated": ["--aggregate-by", "label"],
                 "standardized": ["--standardize"]}


def test_orjson_csv_texts_are_the_repr_writers_bytes(tmp_path, capsys, monkeypatch):
    # The trace CSVs and every projection CSV take their float texts from
    # orjson; with repr's _fields in its place, the bytes must be the same,
    # on each range where orjson lays a float out otherwise, and for the
    # all-zero covariance columns of a points projection.
    data = tmp_path / "layout.json"
    data.write_text(json.dumps(_LAYOUT_DATASET), encoding="utf-8")
    points = tmp_path / "layout.csv"
    points.write_text(_LAYOUT_POINTS, encoding="utf-8")

    def csvs(tag: str) -> dict[str, bytes]:
        prefix = str(tmp_path / tag)
        assert main(["project", "--input", str(data), "--out-prefix", prefix]) == 0
        assert main(["trace", "--input", str(data), "--steps", "9", "--out-prefix", prefix]) == 0
        for form, flags in _POINTS_FORMS.items():
            assert main(["project", "--points", "--input", str(points), *flags,
                         "--out-prefix", f"{prefix}.{form}"]) == 0
        return {name: (tmp_path / f"{tag}.{name}").read_bytes()
                for name in ("projection.csv", "traces.csv", "eigvals.csv",
                             *(f"{form}.projection.csv" for form in _POINTS_FORMS))}

    fast = csvs("orjson")
    monkeypatch.setattr(uapca.io, "orjson_fields", uapca.io._fields)
    assert csvs("repr") == fast

    def cases(text: bytes, first: int) -> set[str]:
        fields = [f for line in text.decode().splitlines()[1:] for f in line.split(",")[first:]]
        return {case for case, hit in (
            ("below 1e-4", any("e-" in f for f in fields)),
            ("1e16 or more", any("e+" in f for f in fields)),
            ("zero", "0.0" in fields),
            ("negative", any(f.startswith("-") for f in fields)),
        ) if hit}

    every = {"below 1e-4", "1e16 or more", "zero", "negative"}
    assert cases(fast["projection.csv"], 1) == every
    assert cases(fast["points.projection.csv"], 1) == every
    assert {f for line in fast["points.projection.csv"].decode().splitlines()[1:]
            for f in line.split(",")[3:]} == {"0.0"}  # a point has no covariance
    assert cases(fast["aggregated.projection.csv"], 1) == every
    assert cases(fast["standardized.projection.csv"], 1) == every - {"1e16 or more"}
    assert cases(fast["traces.csv"], 4) == every - {"1e16 or more"}  # unit loadings
    assert cases(fast["eigvals.csv"], 3) == {"below 1e-4", "1e16 or more"}


@pytest.mark.parametrize("name, text, fragment", [
    ("sd_overflow.json",
     '{"dims": ["a"], "items": [{"values": [{"normal": {"mean": 0, "sd": 1e160}}]}]}',
     'item 0, value 0: the mean or variance of {"normal": {"mean": 0, "sd": 1e+160}}'),
    ("bool_cell.json", '{"dims": ["a"], "items": [{"values": [{"number": true}]}]}',
     "item 0, value 0: expected a number, got true"),
    ("ragged_cov.json",
     '{"dims": ["a", "b"], "items": [{"mvn": {"mean": [0, 0], "cov": [[1, 0], [0]]}}]}',
     "item 0: mvn 'cov' must be an array of numbers with rows of equal length"),
    ("huge_weights.json",
     '{"dims": ["a", "b"], "items": [{"weight": 1e308, "values": [{"number": 1}, {"number": 2}]},'
     ' {"weight": 1e308, "values": [{"number": 2}, {"number": 0}]}]}',
     "matrix contains non-finite entries"),
    ("huge_means.csv", "x,y\n1e308,1e308\n-1e308,-1e308\n1e308,-1e308\n",
     "matrix contains non-finite entries"),
    ("huge_eigenvalue.csv", "a,b,c\n9e153,9e153,9e153\n-9e153,-9e153,-9e153\n",
     "matrix has an eigenvalue beyond the float range"),
    ("string_cell.json", '{"dims": ["a"], "items": [{"values": [{"number": "1_0"}]}]}',
     'item 0, value 0: expected a number, got "1_0"'),
    ("string_interval.json", '{"dims": ["a"], "items": [{"values": [{"interval": ["0", "2"]}]}]}',
     'item 0, value 0: expected a number, got "0"'),
    ("string_mvn.json",
     '{"dims": ["a", "b"], "items": [{"mvn": {"mean": ["1", 0], "cov": [[1, 0], [0, 1]]}}]}',
     'item 0: mvn \'mean\' must be an array of numbers, got "1"'),
    ("bool_mvn.json",
     '{"dims": ["a", "b"], "items": [{"mvn": {"mean": [0, 0], "cov": [[1, 0], [false, 1]]}}]}',
     "item 0: mvn 'cov' must be an array of numbers, got false"),
])
def test_bad_input_is_a_one_line_error(tmp_path, capsys, name, text, fragment):
    import warnings

    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    commands = [["project", "--points"]] if name.endswith(".csv") else [["project"], ["trace"]]
    for command in commands:
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a numpy warning would escape as an exception
            code = main([*command, "--input", str(path), "--out-prefix", str(tmp_path / "o")])
        assert code == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("uapca: error:"), err
        assert fragment in err[0]


_SD_1E154 = ('{"dims": ["a", "b"], "items": [{"values": [{"normal": {"mean": 0, "sd": 1.3e154}},'
             ' {"number": 1}]}, {"values": [{"number": 2}, {"number": 3}]}]}')
_HUGE_CLASSES = "a,b,label\n1.3e154,2,x\n-1.3e154,3,x\n5,1.2e154,y\n0,0,y\n"


@pytest.mark.parametrize("name, text, flags, fragment", [
    # K overflows when eig_sym symmetrizes it.
    ("sd.json", _SD_1E154, ["--scale", "1.3"], "matrix contains non-finite entries"),
    # K fits; the projected covariance overflows when symmetrized.
    ("sd.json", _SD_1E154, [], "projected moments contain non-finite entries"),
    ("std.csv", "a,b\n1e154,2\n-1e154,3\n5,1e154\n", ["--points", "--standardize"],
     "column 'a' has a variance that overflows; cannot standardize"),
    ("std.json", '{"dims": ["a", "b"], "items": [{"weight": 1e308, "values": [{"number": 1},'
     ' {"interval": [0, 8]}]}, {"values": [{"number": 3}, {"number": 1}]}]}', ["--standardize"],
     "axis 'b' has a variance that overflows; cannot standardize"),
    ("classes.csv", _HUGE_CLASSES, ["--points", "--aggregate-by", "label"],
     "class 'x': covariance contains non-finite entries"),
    # A one-point class ahead of the overflowing one is accepted.
    ("classes.csv", "a,b,label\n5,1,y\n" + _HUGE_CLASSES[10:],
     ["--points", "--aggregate-by", "label"], "class 'x': covariance contains non-finite entries"),
    ("span.csv", "a,b\n1e308,2\n-1e308,3\n5,1\n", ["--points", "--scale", "inf"],
     "projected items span more than the float range; cannot draw them"),
])
def test_overflow_in_project_is_a_one_line_error(tmp_path, capsys, name, text, flags, fragment):
    import warnings

    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(["project", *flags, "--input", str(path), "--out-prefix", str(tmp_path / "o")])
    assert code == 1
    err = capsys.readouterr().err.splitlines()
    assert err == [f"uapca: error: {fragment}"]


def test_scale_at_which_k_overflows_is_a_one_line_error(tmp_path, capsys, students_path):
    def project(scale: str, prefix: str) -> int:
        return main(["project", "--input", str(students_path), "--scale", scale,
                     "--out-prefix", str(tmp_path / prefix)])

    assert project("1e160", "big") == 1
    assert capsys.readouterr().err.splitlines() == [
        "uapca: error: K(s) overflows the float range at scale s = 1e+160; "
        "s = inf gives the uncertainty-only limit"]
    assert list(tmp_path.iterdir()) == []
    assert project("1e100", "e100") == 0 and project("inf", "inf") == 0


def test_failed_render_leaves_no_output_file(tmp_path, capsys, monkeypatch, students_path):
    path = tmp_path / "span.csv"
    path.write_text("a,b\n1e308,2\n-1e308,3\n5,1\n", encoding="utf-8")
    out = tmp_path / "out"
    out.mkdir()
    code = main(["project", "--points", "--scale", "inf", "--input", str(path),
                 "--out-prefix", str(out / "o")])
    assert code == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("uapca: error:"), err
    assert list(out.iterdir()) == []

    def broken(curves):
        raise ValueError("cannot draw the eigenvalue curves")

    monkeypatch.setattr(uapca.svg, "eigencurves_svg_pieces", broken)
    code = main(["trace", "--input", str(students_path), "--out-prefix", str(out / "t")])
    assert code == 1
    assert capsys.readouterr().err.splitlines() == [
        "uapca: error: cannot draw the eigenvalue curves"
    ]
    assert list(out.iterdir()) == []


def _write_many_ellipses(path, count: int = 600) -> None:
    """count 2-d Gaussian items, more than two outline chunks of them; the
    last item's 2-sigma ring is by far the widest, so it sets the view."""
    assert count > 2 * uapca.svg._OUTLINE_ITEMS
    rng = np.random.default_rng(31)
    items = [{"label": f"k{i % 3}", "mvn": {"mean": rng.normal(size=2).tolist(),
                                            "cov": (random_psd(rng, 2) * 0.01).tolist()}}
             for i in range(count - 1)]
    items.append({"label": "wide", "mvn": {"mean": [0.5, -0.5],
                                           "cov": [[400.0, 30.0], [30.0, 100.0]]}})
    path.write_text(json.dumps({"dims": ["a", "b"], "items": items}), encoding="utf-8")


def test_streamed_projection_svg_matches_the_joined_document(tmp_path, capsys):
    data = tmp_path / "many.json"
    _write_many_ellipses(data)
    assert main(["project", "--input", str(data), "--out-prefix", str(tmp_path / "m")]) == 0
    streamed = (tmp_path / "m.projection.svg").read_text(encoding="utf-8")

    ds = load_dataset(data)
    g = global_cov(ds)
    model = select_components(eig_sym(g.at(1.0)), g.mean, 2)
    means, covs = project_items(model, ds)
    assert streamed == "".join(uapca.svg.projection_svg_pieces(list(ds.labels), means, covs))
    # Every ring lies inside the view, and the last item's 2-sigma ring,
    # from the last chunk, spans it edge to edge along one axis.
    rings = [[tuple(map(float, vertex.split(","))) for vertex in points.split()]
             for points in re.findall(r'<polyline [^>]* points="([^"]*)"', streamed)]
    assert len(rings) == 2 * len(means)
    assert all(70.0 <= v <= 730.0 for ring in rings for vertex in ring for v in vertex)
    last = np.array(rings[-1])
    assert any(last[:, c].min() == 70.0 and last[:, c].max() == 730.0 for c in (0, 1))


def test_many_ellipses_svg_bytes_are_pinned(tmp_path, capsys):
    # 600 items with covariance, three outline chunks: every ring, including
    # those on each side of a chunk boundary, keeps its bytes.
    data = tmp_path / "many.json"
    _write_many_ellipses(data)
    assert main(["project", "--input", str(data), "--out-prefix", str(tmp_path / "m")]) == 0
    assert hashlib.sha256((tmp_path / "m.projection.svg").read_bytes()).hexdigest() == (
        "1e74e48c99c660d579410323323d1e23e46571065135dbc957396001b9f46dac")


def test_streamed_trace_svgs_match_the_joined_documents(tmp_path, capsys):
    # 2 100 steps: each trace polyline holds 4 200 numbers, more than one
    # formatting chunk.
    steps = 2100
    assert 2 * steps > uapca.svg._CHUNK
    data = tmp_path / "sweep.json"
    data.write_text(json.dumps(_PINNED_SWEEP), encoding="utf-8")
    assert main(["trace", "--input", str(data), "--steps", str(steps),
                 "--out-prefix", str(tmp_path / "t")]) == 0
    ds = load_dataset(data)
    schedule = SweepSchedule(steps)
    models, curves = sweep(ds, 2, schedule)
    assert (tmp_path / "t.traces.svg").read_text(encoding="utf-8") == (
        "".join(uapca.svg.traces_svg_pieces(factor_traces(models, schedule), ds.dim_names)))
    assert (tmp_path / "t.eigvals.svg").read_text(encoding="utf-8") == (
        "".join(uapca.svg.eigencurves_svg_pieces(curves)))


def test_failure_mid_stream_leaves_no_file_and_keeps_old_ones(tmp_path, capsys, monkeypatch):
    data = tmp_path / "many.json"
    _write_many_ellipses(data)
    out = tmp_path / "out"
    out.mkdir()
    old = {name: f"old {name}\n" for name in ("m.projection.csv", "m.projection.svg")}
    for name, text in old.items():
        (out / name).write_text(text, encoding="utf-8")
    vertex_texts = uapca.svg._vertex_texts
    seen = []

    def fail_on_the_second_chunk(values, sizes):
        if seen:
            # The CSV and the first chunk of outlines are in the staged files.
            staged = {p.name.rsplit(".", 2)[0]: p.stat().st_size
                      for p in out.iterdir() if p.name not in old}
            assert set(staged) == set(old) and staged["m.projection.svg"] > 100_000
            raise ValueError("cannot draw the second chunk")
        seen.append(len(sizes))
        yield from vertex_texts(values, sizes)

    monkeypatch.setattr(uapca.svg, "_vertex_texts", fail_on_the_second_chunk)
    code = main(["project", "--input", str(data), "--out-prefix", str(out / "m")])
    assert code == 1
    assert capsys.readouterr().err.splitlines() == ["uapca: error: cannot draw the second chunk"]
    assert seen == [2 * uapca.svg._OUTLINE_ITEMS]
    assert {p.name: p.read_text(encoding="utf-8") for p in out.iterdir()} == old


def test_a_directory_at_an_output_path_replaces_no_file(tmp_path, capsys, students_path):
    out = tmp_path / "out"
    out.mkdir()
    (out / "d.projection.svg").mkdir()
    argv = ["project", "--input", str(students_path), "--out-prefix", str(out / "d")]
    for old_csv in (None, "old csv\n"):
        if old_csv is not None:
            (out / "d.projection.csv").write_text(old_csv, encoding="utf-8")
        assert main(argv) == 1
        assert capsys.readouterr().err.splitlines() == [
            f"uapca: error: [Errno {errno.EISDIR}] {os.strerror(errno.EISDIR)}: "
            f"{str(out / 'd.projection.svg')!r}"]
        # No new CSV, an old one kept byte for byte, and no temporary file.
        assert sorted(p.name for p in out.iterdir()) == (
            ["d.projection.svg"] if old_csv is None else ["d.projection.csv", "d.projection.svg"])
        if old_csv is not None:
            assert (out / "d.projection.csv").read_text(encoding="utf-8") == old_csv
    assert list((out / "d.projection.svg").iterdir()) == []


@pytest.mark.parametrize("field", ['"' + "x" * 200_000 + '"', "x" * 200_000],
                         ids=["quoted", "unquoted"])
def test_oversized_csv_field_is_a_one_line_error(tmp_path, capsys, field):
    data = tmp_path / "big.csv"
    data.write_text(f"a,b,label\n1,2,{field}\n3,5,y\n", encoding="utf-8")
    out = tmp_path / "out"
    out.mkdir()
    assert main(["project", "--points", "--input", str(data), "--out-prefix", str(out / "P")]) == 1
    err = capsys.readouterr().err.splitlines()
    assert err == [f"uapca: error: {data}: not readable as CSV: "
                   f"field larger than field limit ({csv.field_size_limit()})"]
    assert list(out.iterdir()) == []


def test_byte_order_mark_is_not_part_of_the_first_axis_name(tmp_path, capsys):
    data = tmp_path / "bom.csv"
    data.write_bytes("\ufeffx,y\n1,2\n3,5\n4,4\n".encode("utf-8"))
    prefix = tmp_path / "bom"
    assert main(["project", "--points", "--standardize", "--input", str(data),
                 "--out-prefix", str(prefix)]) == 0
    assert load_points(data).dim_names == ("x", "y")


def _csv_rows_and_rewrite(path):
    """The rows csv.reader reads from path, and the text csv.writer writes for them."""
    with open(path, encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))
    out = io.StringIO()
    csv.writer(out, lineterminator="\n").writerows(rows)
    return rows, out.getvalue()


def test_csv_text_fields_are_quoted_as_csv_writer_quotes_them(tmp_path, capsys):
    points = tmp_path / "quoted.csv"
    points.write_text('x,y,label\n1,2,"a,b"\n3,5,c\n2,9,"d\ne"\n4,1,"say ""hi"""\n',
                      encoding="utf-8")
    code = main(["project", "--points", "--input", str(points),
                 "--out-prefix", str(tmp_path / "p")])
    assert code == 0
    csv_path = tmp_path / "p.projection.csv"
    rows, rewritten = _csv_rows_and_rewrite(csv_path)
    assert [len(row) for row in rows] == [7] * 5
    assert [row[0] for row in rows[1:]] == ["a,b", "c", "d\ne", 'say "hi"']
    assert csv_path.read_text(encoding="utf-8") == rewritten

    # Axis names, CR included: csv.writer quotes it from Python 3.13 on, and
    # csv.reader cannot read it back unquoted.
    for names in (["plain", "a,b", 'q"t', "l\nf"], ["plain", "c\rr"]):
        doc = {"dims": names, "items": [
            {"values": [{"number": float(i * j % 5)} for j in range(len(names))]}
            for i in range(1, 7)]}
        data = tmp_path / "names.json"
        data.write_text(json.dumps(doc), encoding="utf-8")
        assert main(["trace", "--input", str(data), "--steps", "3",
                     "--out-prefix", str(tmp_path / "t")]) == 0
        csv_path = tmp_path / "t.traces.csv"
        rows, rewritten = _csv_rows_and_rewrite(csv_path)
        assert all(len(row) == 6 for row in rows)
        assert [row[2] for row in rows[1::6]] == names
        text = csv_path.read_bytes().decode("utf-8")  # read_text would turn CR into LF
        if "c\rr" in names:
            assert '"c\rr"' in text
        if "c\rr" not in names or sys.version_info >= (3, 13):
            assert text == rewritten


def test_svg_text_is_escaped(tmp_path, capsys):
    doc = {"dims": ["a<b", "c&d", "e>f"], "items": [
        {"label": "x<y & z", "values": [{"number": 1}, {"interval": [0, 2]}, {"number": 3}]},
        {"label": "</text>", "values": [{"number": 2}, {"number": 5}, {"interval": [1, 4]}]},
        {"values": [{"number": 4}, {"number": 1}, {"normal": {"mean": 0, "sd": 1}}]},
    ]}
    data = tmp_path / "marks.json"
    data.write_text(json.dumps(doc), encoding="utf-8")
    assert main(["project", "--input", str(data), "--out-prefix", str(tmp_path / "p")]) == 0
    assert main(["trace", "--input", str(data), "--steps", "4",
                 "--out-prefix", str(tmp_path / "t")]) == 0
    for name, texts in (("p.projection.svg", {"x<y & z", "</text>", "item3"}),
                        ("t.traces.svg", {"a<b", "c&d", "e>f"})):
        dom = xml.dom.minidom.parse(str(tmp_path / name))
        found = {node.firstChild.data for node in dom.getElementsByTagName("text")}
        assert texts <= found, (name, found)


def _fresh_env(**variables: str | None) -> dict:
    """An environment that runs this uapca; each keyword sets that
    environment variable, or unsets it when None."""
    env = {k: v for k, v in os.environ.items() if k != "UAPCA_SEED"}
    env["PYTHONPATH"] = os.pathsep.join([str(Path(uapca.cli.__file__).parents[1]),
                                        env.get("PYTHONPATH", "")])
    for name, value in variables.items():
        if value is None:
            env.pop(name, None)
        else:
            env[name] = value
    return env


def _fresh_process(script: str, **variables: str | None) -> str:
    """stdout of a fresh Python process that runs script in _fresh_env(**variables)."""
    return subprocess.run([sys.executable, "-c", script], env=_fresh_env(**variables),
                          capture_output=True, text=True, check=True).stdout


def test_cli_runs_do_not_import_numpy_ma(tmp_path, students_path, iris_path):
    # np.median and np.union1d import numpy.ma on first use; a fresh process
    # shows whether anything on these paths still does.
    script = (
        "import sys\n"
        "from uapca.cli import main\n"
        f"assert main(['trace', '--input', {str(students_path)!r}, '--steps', '16',\n"
        f"             '--out-prefix', {str(tmp_path / 't')!r}]) == 0\n"
        f"assert main(['project', '--input', {str(students_path)!r},\n"
        f"             '--out-prefix', {str(tmp_path / 'p')!r}]) == 0\n"
        f"assert main(['project', '--points', '--input', {str(iris_path)!r},\n"
        f"             '--out-prefix', {str(tmp_path / 'q')!r}]) == 0\n"
        "assert main(['compare-sampling', '--dims', '2', '--runs', '3', '--samples', '8',\n"
        f"             '--items', '3', '--out', {str(tmp_path / 'c.csv')!r}]) == 0\n"
        "print('numpy.ma' in sys.modules)\n"
    )
    assert _fresh_process(script).splitlines()[-1] == "False"


def test_a_rejected_cell_loads_no_item_class(tmp_path):
    # The reader words a rejected cell from its rule masks, without building it.
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"dims": ["a"], "items": [{"values": [{"interval": [2, 1]}]}]}))
    script = (
        "import sys\n"
        "from uapca.dataset_json import load_dataset\n"
        "from uapca.io import DatasetFormatError\n"
        "try:\n"
        f"    load_dataset({str(path)!r})\n"
        "except DatasetFormatError as exc:\n"
        "    print(exc)\n"
        "print('uapca.items' in sys.modules)\n"
    )
    assert _fresh_process(script).splitlines() == [
        f"{path}: item 0, value 0: interval bounds must satisfy lo <= hi, got [2.0, 1.0]",
        "False",
    ]


def test_each_command_loads_only_its_own_modules(tmp_path, students_path, iris_path):
    # With bytecode writing off, every module a call loads is compiled on
    # that call; fresh processes show which ones each command loads.
    def loaded(code: str) -> set[str]:
        # uapca's modules by their names in the package, and those of `others` loaded.
        others = ("json", "orjson", "concurrent.futures", "multiprocessing")
        out = _fresh_process(
            f"import sys\n{code}\n"
            "names = [m[6:] for m in sys.modules if m.startswith('uapca.')]\n"
            f"print(' '.join(names + [m for m in {others!r} if m in sys.modules]))\n")
        return set(out.splitlines()[-1].split())

    def command(*argv: str) -> str:
        return f"from uapca.cli import main\nassert main({list(argv)!r}) == 0"

    # compare-sampling keeps repr for its CSV floats: importing orjson for
    # it added about 0.3 MB to the run's peak RSS.  The points forms parse
    # their input with orjson, which imports json.
    assert loaded("import uapca") == set()
    assert "project" not in loaded("import uapca.svg")
    assert not loaded("import uapca.cli") & {
        "metrics", "sensitivity", "svg", "project", "eigen", "items", "dataset_json", "json",
        "orjson"}
    assert not loaded(command("project", "--points", "--input", str(iris_path),
                              "--out-prefix", str(tmp_path / "p"))) & {
        "metrics", "sensitivity", "items", "dataset_json"}
    assert not loaded(command("project", "--points", "--input", str(iris_path),
                              "--aggregate-by", "label", "--out-prefix", str(tmp_path / "a"))) & {
        "items", "dataset_json"}
    dataset_project = loaded(command("project", "--input", str(students_path),
                                     "--out-prefix", str(tmp_path / "d")))
    assert "items" not in dataset_project and {"dataset_json", "orjson"} <= dataset_project
    assert not loaded(command("trace", "--input", str(students_path),
                              "--steps", "8", "--out-prefix", str(tmp_path / "t"))) & {
        "metrics", "items", "project"}
    assert not loaded(command("compare-sampling", "--dims", "2", "--runs", "2", "--samples", "8",
                              "--items", "3", "--out", str(tmp_path / "c.csv"))) & {
        "svg", "project", "sensitivity", "eigen", "items", "dataset_json", "orjson",
        "concurrent.futures", "multiprocessing"}


@pytest.mark.parametrize("imports, value, expected", [
    ("import uapca.cli", None, "1"),
    ("import uapca.cli", "3", "3"),
    ("import numpy\nimport uapca.cli", None, "None"),
])
def test_cli_gives_openblas_one_thread_unless_set(imports, value, expected):
    out = _fresh_process(f"import os\n{imports}\nprint(os.environ.get('OPENBLAS_NUM_THREADS'))",
                         OPENBLAS_NUM_THREADS=value)
    assert out.splitlines()[-1] == expected


def test_compare_sampling_bytes_do_not_depend_on_blas_threads(tmp_path):
    # The CLI's one-thread OpenBLAS default, kept for the project and trace
    # commands, must not move a compare-sampling byte against two threads.
    def csv_bytes(name: str, threads: str | None) -> bytes:
        out = tmp_path / name
        _fresh_process("from uapca.cli import main\n"
                       "assert main(['compare-sampling', '--dims', '12', '--samples', '4096',\n"
                       f"             '--runs', '2', '--out', {str(out)!r}]) == 0",
                       OPENBLAS_NUM_THREADS=threads)
        return out.read_bytes()

    assert csv_bytes("two.csv", "2") == csv_bytes("default.csv", None)


@pytest.mark.parametrize("collecting", [True, False])
@pytest.mark.parametrize("argv, code", [
    (["project", "--input", "{students}", "--out-prefix", "{tmp}/e"], 0),
    (["project", "--input", "{tmp}/missing.json", "--out-prefix", "{tmp}/e"], 1),
])
def test_main_leaves_the_collector_as_it_found_it(
        tmp_path, capsys, students_path, argv, code, collecting):
    # Only entry_point ends the process; an in-process caller of main()
    # keeps its collector state and collects its later garbage cycles.
    argv = [a.format(students=students_path, tmp=tmp_path) for a in argv]
    before = gc.get_freeze_count()
    was_enabled = gc.isenabled()
    try:
        (gc.enable if collecting else gc.disable)()
        assert main(argv) == code
        assert gc.isenabled() is collecting
    finally:
        (gc.enable if was_enabled else gc.disable)()
    assert gc.get_freeze_count() == before


_ATEXIT_SITE = "import atexit\natexit.register(print, 'atexit handler ran')\n"


@pytest.mark.parametrize("argv, code", [
    (["project", "--input", "{students}", "--out-prefix", "{tmp}/e"], 0),
    (["project", "--input", "{tmp}/missing.json", "--out-prefix", "{tmp}/e"], 1),
    (["project", "--input", "{students}"], 2),
    (["project", "--help"], 0),
])
def test_module_run_writes_all_its_output_and_runs_atexit_handlers(
        tmp_path, capsys, monkeypatch, students_path, argv, code):
    # python -m uapca ends the process without interpreter teardown once
    # main() returns; both streams still carry everything main() wrote, and
    # an atexit handler's output, buffered in a pipe, still comes out last.
    argv = [a.format(students=students_path, tmp=tmp_path) for a in argv]
    monkeypatch.setenv("COLUMNS", "80")  # argparse's help width, on both sides
    try:
        expected_code = main(argv)
    except SystemExit as exc:
        expected_code = exc.code
    expected = capsys.readouterr()
    assert expected_code == code
    site = tmp_path / "site"
    site.mkdir()
    (site / "sitecustomize.py").write_text(_ATEXIT_SITE, encoding="utf-8")
    env = _fresh_env(PYTHONUNBUFFERED=None)
    env["PYTHONPATH"] = os.pathsep.join([str(site), env["PYTHONPATH"]])
    result = subprocess.run([sys.executable, "-m", "uapca", *argv], env=env,
                            capture_output=True, text=True)
    assert result.returncode == code
    assert result.stdout == expected.out + "atexit handler ran\n"
    assert result.stderr == expected.err


@pytest.mark.parametrize("unbuffered", [None, "1"])
def test_closed_stdout_is_a_one_line_error(tmp_path, students_path, unbuffered):
    # Block-buffered, the summary lines reach the closed pipe only in the
    # flush after main() returns; unbuffered, in main()'s own print.
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        result = subprocess.run(
            [sys.executable, "-m", "uapca", "project", "--input", str(students_path),
             "--out-prefix", str(tmp_path / "p")],
            env=_fresh_env(PYTHONUNBUFFERED=unbuffered), stdout=write_end,
            stderr=subprocess.PIPE, text=True)
    finally:
        os.close(write_end)
    assert result.returncode == 1
    assert result.stderr == f"uapca: error: [Errno {errno.EPIPE}] {os.strerror(errno.EPIPE)}\n"


_NON_UTF8_DATASET = b'{"dims": ["a"], "items": [{"label": "x\xff", "values": [{"number": 1}]}]}'


@pytest.mark.parametrize("name, data, command", [
    ("points.csv", b"x,y\n1,2\n3,\xff\n", ["project", "--points"]),
    ("dataset.json", _NON_UTF8_DATASET, ["project"]),
    ("dataset.json", _NON_UTF8_DATASET, ["trace"]),
])
def test_bytes_that_are_not_utf8_are_a_one_line_error_naming_the_file(
        tmp_path, capsys, name, data, command):
    path = tmp_path / name
    path.write_bytes(data)
    assert main([*command, "--input", str(path), "--out-prefix", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1, err
    assert err[0].startswith(f"uapca: error: {path}: not valid UTF-8: "), err


def test_package_exports_resolve_to_their_home_modules():
    import uapca

    for name in uapca.__all__:
        value = getattr(uapca, name)
        if name != "__version__":
            assert value.__module__.startswith("uapca.")
            assert getattr(sys.modules[value.__module__], name) is value
    assert set(uapca.__all__) <= set(dir(uapca))
    namespace: dict = {}
    exec("from uapca import *", namespace)
    assert all(namespace[name] is getattr(uapca, name) for name in uapca.__all__)
    with pytest.raises(AttributeError, match=r"^module 'uapca' has no attribute 'no_such_name'$"):
        uapca.no_such_name


def test_svg_text_replaces_characters_xml_forbids(tmp_path, capsys):
    doc = {"dims": ["a", "b\u0001", "c"], "items": [
        {"label": "x\u0002", "values": [{"number": 1}, {"interval": [0, 2]}, {"number": 3}]},
        {"label": "y\uffff", "values": [{"number": 2}, {"number": 5}, {"interval": [1, 4]}]},
        {"label": "z", "values": [{"number": 4}, {"number": 1}, {"normal": {"mean": 0, "sd": 1}}]},
    ]}
    data = tmp_path / "controls.json"
    data.write_text(json.dumps(doc), encoding="utf-8")
    assert main(["project", "--input", str(data), "--out-prefix", str(tmp_path / "p")]) == 0
    assert main(["trace", "--input", str(data), "--steps", "4",
                 "--out-prefix", str(tmp_path / "t")]) == 0
    for name, texts in (("p.projection.svg", {"x\ufffd", "y\ufffd"}),
                        ("t.traces.svg", {"b\ufffd"})):
        dom = xml.dom.minidom.parse(str(tmp_path / name))
        assert texts <= {node.firstChild.data for node in dom.getElementsByTagName("text")}
    rows, _ = _csv_rows_and_rewrite(tmp_path / "p.projection.csv")
    assert [row[0] for row in rows[1:]] == ["x\u0002", "y\uffff", "z"]
    rows, _ = _csv_rows_and_rewrite(tmp_path / "t.traces.csv")
    assert [row[2] for row in rows[1::8]] == ["a", "b\u0001", "c"]


# Axis names whose brackets and escapes must not hide how deep the items nest.
@pytest.mark.parametrize("axis", ["a", "]" * 200_000, '\\"' + "]" * 200_000 + "\\\\"],
                         ids=["plain", "brackets", "escapes"])
@pytest.mark.parametrize("command", ["project", "trace"])
def test_deeply_nested_json_is_a_one_line_error(tmp_path, capsys, command, axis):
    data = tmp_path / "deep.json"
    data.write_text(f'{{"dims": ["{axis}"], "items": ' + "[" * 200_000 + "]" * 200_000 + "}",
                    encoding="utf-8")
    out = tmp_path / "out"
    out.mkdir()
    assert main([command, "--input", str(data), "--out-prefix", str(out / "P")]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"uapca: error: {data}: invalid JSON: "), err
    assert list(out.iterdir()) == []


@pytest.mark.parametrize("command, dims, label, fragment", [
    ("project", ["a", "b"], "x\ud800", "item 0: label 'x\\ud800' holds a lone surrogate"),
    ("trace", ["a", "b\udc80"], "x", "axis 1 name 'b\\udc80' holds a lone surrogate"),
], ids=["label", "axis-name"])
def test_lone_surrogates_are_a_one_line_error(tmp_path, capsys, command, dims, label, fragment):
    doc = {"dims": dims, "items": [
        {"label": label, "values": [{"number": 1}, {"number": 2}]},
        {"values": [{"number": 3}, {"interval": [0, 1]}]},
        {"values": [{"number": 0}, {"number": 5}]},
    ]}
    data = tmp_path / "surrogate.json"
    data.write_text(json.dumps(doc), encoding="utf-8")  # "\ud800" as a JSON escape
    out = tmp_path / "out"
    out.mkdir()
    assert main([command, "--input", str(data), "--out-prefix", str(out / "P")]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("uapca: error:"), err
    assert fragment in err[0]
    assert list(out.iterdir()) == []
