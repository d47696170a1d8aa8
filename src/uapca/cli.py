"""Command-line interface.

Three subcommands: ``project`` fits the model at one uncertainty scale and
writes the projected items, ``trace`` sweeps the scale and writes factor
traces plus eigenvalue curves, ``compare-sampling`` runs the convergence
experiment against the Monte-Carlo oracle.  Machine-readable results go to
files; stdout carries short human summaries.  Exit codes: 0 on success; 1
on input or validation failures, a failed write (stdout included), or out
of memory; 2 on bad flags.
"""

from __future__ import annotations

import argparse
import atexit
import contextlib
import errno
import math
import os
import sys
from typing import NoReturn

# Every command does only small products, which a second OpenBLAS thread
# slows down: on a 2-core host, with two threads a call on the benchmark's
# inputs took 0.25 s instead of 0.18 s (trace) and 0.29 s instead of 0.22 s
# (project).  So OpenBLAS gets one thread.
# It reads the variable when numpy loads: a caller that has loaded numpy
# already keeps its environment, and a user's value wins.
if "numpy" not in sys.modules:
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

# Each subcommand imports the modules it runs; .io (and numpy) serve them all.
from .io import LABEL_COLUMN, DatasetFormatError


class UsageError(Exception):
    """A flag combination or flag value that cannot be honored."""


def _int_at_least(lo: int, too_small: str):
    """An argparse type: an integer >= lo; too_small is formatted with text= and value=."""

    def parse(text: str) -> int:
        try:
            v = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}")
        if v < lo:
            raise argparse.ArgumentTypeError(too_small.format(text=text, value=v))
        return v

    return parse


def _positive_int_list(invalid: str, ranges: bool = False):
    """An argparse type: comma-separated positive integers, or LO..HI when ranges."""

    def parse(text: str) -> tuple[int, ...]:
        try:
            if ranges and ".." in text:
                lo, hi = (int(p) for p in text.split("..", 1))
                values = tuple(range(lo, hi + 1))
            else:
                values = tuple(int(p) for p in text.split(","))
            if not values or min(values) < 1:
                raise ValueError
            return values
        except ValueError:
            raise argparse.ArgumentTypeError(invalid.format(text))

    return parse


_positive_int = _int_at_least(1, "expected a positive integer, got {text}")
_steps_value = _int_at_least(2, "--steps needs at least 2 steps, got {value}")
_seed_value = _int_at_least(0, "--seed must be >= 0, got {value}")
_dims_list = _positive_int_list(
    "invalid dimension list {!r}; use forms like 4 or 2..12 or 2,4,8,12", ranges=True
)
_counts_list = _positive_int_list("invalid sample-count list {!r}; use e.g. 16,64,256")


def _scale_value(text: str) -> float:
    try:
        v = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected a number or 'inf', got {text!r}")
    if math.isnan(v) or v < 0.0:
        raise argparse.ArgumentTypeError(f"--scale must be >= 0 (or inf), got {text}")
    return v


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="uapca",
        description="Principal component analysis over probability distributions.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("project", help="fit at one uncertainty scale and project the items")
    p.add_argument("--input", required=True, help="dataset JSON, or points CSV with --points")
    p.add_argument("--points", action="store_true", help="treat --input as a points CSV")
    p.add_argument("--aggregate-by", metavar="COLUMN",
                   help=f"fold points into per-class items by the trailing "
                        f"'{LABEL_COLUMN}' column (requires --points)")
    p.add_argument("--dims", type=_positive_int, default=2, metavar="Q",
                   help="number of components (default 2)")
    p.add_argument("--scale", type=_scale_value, default=1.0, metavar="S",
                   help="uncertainty scaling factor; 0 gives plain PCA on the means, "
                        "inf the uncertainty-limit subspace with item ellipses unscaled "
                        "(default 1)")
    p.add_argument("--standardize", action="store_true",
                   help="z-score axes before fitting")
    p.add_argument("--out-prefix", required=True, metavar="P",
                   help="writes P.projection.csv and, for --dims 2, P.projection.svg")
    p.set_defaults(func=_cmd_project)

    t = sub.add_parser("trace", help="sweep the uncertainty scale and write factor traces")
    t.add_argument("--input", required=True, help="dataset JSON")
    t.add_argument("--steps", type=_steps_value, default=64, metavar="N",
                   help="sweep steps over s in [0, inf] (default 64)")
    t.add_argument("--dims", type=_positive_int, default=2, metavar="Q",
                   help="number of components; the trace plot requires 2 (default 2)")
    t.add_argument("--out-prefix", required=True, metavar="P",
                   help="writes P.traces.csv, P.eigvals.csv, P.traces.svg, P.eigvals.svg")
    t.set_defaults(func=_cmd_trace)

    c = sub.add_parser("compare-sampling",
                       help="convergence of sampled PCA toward the closed form")
    c.add_argument("--dims", type=_dims_list, default=tuple(range(2, 13)), metavar="SPEC",
                   help="dimensions to test, e.g. 2..12 or 2,4,8,12 (default 2..12)")
    c.add_argument("--runs", type=_positive_int, default=40, metavar="N",
                   help="runs per cell (its own seeded streams); median (default 40)")
    c.add_argument("--seed", type=_seed_value, default=0, metavar="S",
                   help="experiment seed (default 0; UAPCA_SEED overrides)")
    c.add_argument("--samples", type=_counts_list, default=None, metavar="LIST",
                   help="per-item sample counts, strictly increasing (default 16,64,256,1024,4096)")
    c.add_argument("--items", type=_positive_int, default=10, metavar="N",
                   help="items per synthetic dataset (default 10)")
    c.add_argument("--out", required=True, metavar="FILE", help="output CSV path")
    c.set_defaults(func=_cmd_compare_sampling)
    return parser


@contextlib.contextmanager
def _outputs():
    """Yields stage(path, pieces=()), which streams pieces into a new file
    beside path (mode "x": a plain open's mode) and returns its name.  The
    staged files replace their paths when the block ends, or are removed if
    it raises, leaving every path as it was, as when a path is a directory.
    """
    staged = {}  # path -> its temporary file

    def stage(path: str, pieces=()) -> str:
        tmp = f"{path}.{os.urandom(4).hex()}.tmp"
        try:
            fh = open(tmp, "x", encoding="utf-8", newline="\n")
        except OSError as exc:
            exc.filename = path
            raise
        staged[path] = tmp
        with fh:
            fh.writelines(pieces)
        return tmp

    try:
        yield stage
        for path in staged:  # before the first rename, so that none is done
            if os.path.isdir(path):
                raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), path)
        for path, tmp in list(staged.items()):
            os.replace(tmp, path)
            del staged[path]
    finally:
        for tmp in staged.values():
            with contextlib.suppress(OSError):
                os.remove(tmp)


def _cmd_project(args) -> int:
    from .cov import global_cov
    from .eigen import eig_sym, select_components
    from .io import (PointsData, aggregate_by_label, load_points, points_dataset,
                     standardize_dataset, standardize_points, write_projection_csv)
    from .project import project_items
    from .svg import projection_svg_pieces

    if args.points:
        pts = load_points(args.input)
        if args.standardize:
            pts = PointsData(
                points=standardize_points(pts.points, pts.dim_names),
                dim_names=pts.dim_names,
                labels=pts.labels,
            )
        if args.aggregate_by is not None:
            if args.aggregate_by != LABEL_COLUMN:
                raise UsageError(
                    f"--aggregate-by supports only the trailing "
                    f"'{LABEL_COLUMN}' column, got {args.aggregate_by!r}"
                )
            ds = aggregate_by_label(pts)
        else:
            ds = points_dataset(pts)
    else:
        if args.aggregate_by is not None:
            raise UsageError("--aggregate-by requires --points")
        from .dataset_json import load_dataset

        ds = load_dataset(args.input)
        if args.standardize:
            ds = standardize_dataset(ds)

    if not 1 <= args.dims <= ds.dim:
        raise UsageError(
            f"--dims {args.dims} out of range for {ds.dim}-dimensional data "
            f"(need 1 <= Q <= {ds.dim})"
        )

    s = args.scale
    g = global_cov(ds)
    pairs = eig_sym(g.at(s))
    model = select_components(pairs, g.mean, args.dims)

    labels = list(ds.labels or (f"item{i + 1}" for i in range(len(ds))))
    means, covs = project_items(model, ds, cov_scale=1.0 if math.isinf(s) else s * s)

    written = [f"{args.out_prefix}.projection.csv"]
    with _outputs() as stage:
        # The CSV floats' texts come from the orjson that parsed the input,
        # about ten times faster than repr, with the same bytes.
        write_projection_csv(stage(written[0]), labels, means, covs)
        if args.dims == 2:
            written.append(f"{args.out_prefix}.projection.svg")
            stage(written[1], projection_svg_pieces(labels, means, covs))
    print("eigenvalues: " + " ".join(repr(float(v)) for v in pairs.values))
    print("wrote " + ", ".join(written))
    return 0


def _cmd_trace(args) -> int:
    from .dataset_json import load_dataset
    from .io import write_eigencurves_csv, write_traces_csv
    from .sensitivity import SweepSchedule, factor_traces, sweep
    from .svg import eigencurves_svg_pieces, traces_svg_pieces

    if args.dims != 2:
        raise UsageError("the trace plot is two-dimensional; use --dims 2")
    ds = load_dataset(args.input)
    if ds.dim < 2:
        raise UsageError(f"--dims 2 out of range for {ds.dim}-dimensional data")
    schedule = SweepSchedule(args.steps)
    models, curves = sweep(ds, 2, schedule)
    traces = factor_traces(models, schedule)

    paths = {
        "traces_csv": f"{args.out_prefix}.traces.csv",
        "eigvals_csv": f"{args.out_prefix}.eigvals.csv",
        "traces_svg": f"{args.out_prefix}.traces.svg",
        "eigvals_svg": f"{args.out_prefix}.eigvals.svg",
    }
    with _outputs() as stage:
        write_traces_csv(stage(paths["traces_csv"]), traces, schedule, ds.dim_names)
        write_eigencurves_csv(stage(paths["eigvals_csv"]), curves)
        stage(paths["traces_svg"], traces_svg_pieces(traces, ds.dim_names))
        stage(paths["eigvals_svg"], eigencurves_svg_pieces(curves))

    if curves.avoided_crossing_flags:
        for step, pair in curves.avoided_crossing_flags:
            s_here = curves.s_values[step]
            print(
                f"avoided crossing flagged between components {pair + 1} and "
                f"{pair + 2} near s={s_here:.4g} (step {step})"
            )
    else:
        print("no avoided crossings flagged")
    print("wrote " + ", ".join(paths.values()))
    return 0


def _cmd_compare_sampling(args) -> int:
    from .io import write_experiment_csv
    from .metrics import (DEFAULT_SAMPLE_COUNTS, ExperimentConfig,
                          run_convergence_experiment, samples_to_reach)

    seed = args.seed
    raw_env = os.environ.get("UAPCA_SEED")
    if raw_env is not None:
        try:
            seed = _seed_value(raw_env)
        except argparse.ArgumentTypeError:
            raise UsageError(f"UAPCA_SEED must be a non-negative integer, got {raw_env!r}")
    try:
        cfg = ExperimentConfig(
            dims=args.dims,
            sample_counts=args.samples if args.samples is not None else DEFAULT_SAMPLE_COUNTS,
            n_items=args.items,
            runs=args.runs,
            rng_seed=seed,
        )
    except ValueError as exc:
        raise UsageError(str(exc))
    rows = run_convergence_experiment(cfg)
    with _outputs() as stage:
        write_experiment_csv(stage(args.out), rows)
    for dim in cfg.dims:
        needed = samples_to_reach(rows, dim)
        if needed is None:
            print(f"dim {dim}: median Hellinger never fell below 0.1")
        else:
            print(f"dim {dim}: median Hellinger < 0.1 from {needed} samples per item")
    print(f"wrote {args.out}")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"uapca: error: {exc}", file=sys.stderr)
        return 2
    except (DatasetFormatError, OSError, ValueError) as exc:
        print(f"uapca: error: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:
        print(f"uapca: error: out of memory: {str(exc) or 'allocation failed'}", file=sys.stderr)
        return 1


def entry_point() -> NoReturn:
    """``main()`` for a process that ends when it returns: ``python -m uapca``
    and the ``uapca`` script.

    Once ``main()`` returns, the atexit handlers run, stdout and stderr are
    flushed and ``os._exit`` ends the process with main's exit code, so the
    interpreter does not tear down the modules (numpy's included), whose
    memory the OS reclaims anyway.  Output files are closed before main
    returns.  A stdout that cannot take what is left in its buffer, such as
    a closed pipe, is a one-line error and exit code 1.  A ``SystemExit``
    from argparse (a usage error, ``--help``), and any exception main does
    not handle, leave the normal way.  ``main()`` itself does none of this:
    tests and library callers run it in-process.
    """
    code = main()
    atexit._run_exitfuncs()
    try:
        if sys.stdout is not None:
            sys.stdout.flush()
    except OSError as exc:
        print(f"uapca: error: {exc}", file=sys.stderr)
        code = 1
    with contextlib.suppress(AttributeError, OSError):
        sys.stderr.flush()
    os._exit(code)


if __name__ == "__main__":
    sys.exit(entry_point())
