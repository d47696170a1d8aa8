import hashlib
import json
import subprocess
import sys

import numpy as np
import pytest

import uapca.cli
from uapca.cli import main
from uapca.io import load_dataset


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

    emp = tmp_path / "emp"
    code = main([
        "project", "--input", str(iris_path), "--points",
        "--aggregate-by", "label", "--cluster-kind", "empirical",
        "--out-prefix", str(emp),
    ])
    assert code == 0
    # Gaussian and empirical class summaries share the same moments.
    assert _read_lines(tmp_path / "agg.projection.csv") == _read_lines(tmp_path / "emp.projection.csv")


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


def test_compare_sampling_rejects_unordered_counts(tmp_path, capsys, monkeypatch):
    monkeypatch.delenv("UAPCA_SEED", raising=False)
    code = main([
        "compare-sampling", "--dims", "2", "--samples", "64,16",
        "--out", str(tmp_path / "x.csv"),
    ])
    assert code == 2
    assert "strictly increasing" in capsys.readouterr().err


def test_compare_sampling_csv_bytes_are_pinned(tmp_path, capsys, monkeypatch):
    # Recorded from the serial implementation; the thread pool must not move a bit.
    monkeypatch.delenv("UAPCA_SEED", raising=False)
    out = tmp_path / "pin.csv"
    code = main([
        "compare-sampling", "--dims", "2,5", "--runs", "4",
        "--samples", "16,256", "--seed", "3", "--out", str(out),
    ])
    assert code == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == (
        "97426ac853b50594c60ebb7aa48bf49a3b406bdf5b7b5f0f312655549f862d7a"
    )


def test_out_of_memory_is_a_one_line_error(tmp_path, capsys, monkeypatch):
    monkeypatch.delenv("UAPCA_SEED", raising=False)

    def exhausted(cfg):
        raise MemoryError("Unable to allocate 16.0 TiB for an array")

    monkeypatch.setattr(uapca.cli, "run_convergence_experiment", exhausted)
    code = main(["compare-sampling", "--dims", "2", "--runs", "1",
                 "--out", str(tmp_path / "x.csv")])
    assert code == 1
    err = capsys.readouterr().err
    assert err.splitlines() == [
        "uapca: error: out of memory: Unable to allocate 16.0 TiB for an array"
    ]
    assert "Traceback" not in err


def test_cli_import_leaves_the_thread_pool_unloaded():
    # concurrent.futures is imported when the experiment runs, so it adds
    # nothing to the start-up of the other commands.
    result = subprocess.run(
        [sys.executable, "-c",
         "import uapca.cli, sys; print('concurrent.futures' in sys.modules)"],
        capture_output=True, text=True,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "False"


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
     "Gaussian covariance contains non-finite entries"),
    ("classes.csv", _HUGE_CLASSES,
     ["--points", "--aggregate-by", "label", "--cluster-kind", "empirical"],
     "matrix contains non-finite entries"),
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
