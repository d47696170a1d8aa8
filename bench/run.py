"""Benchmark of the uapca CLI: end-to-end runs and a traced per-layer run.

Usage, from the root of a checkout:

    python3 bench/run.py --workload trace-sweep --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 30

``--trace 0`` runs the CLI as child processes on inputs generated from the
seed and reports the end-to-end metrics: ``wall_s`` (wall time of one CLI
process, spawn to exit), ``setup_s`` (wall time of a process that only runs
``import uapca.cli``) and ``peak_rss_mb`` (median of the children's peak
resident memory).  One untimed call warms the page cache and the bytecode
cache first.

The speed of a shared host drifts by a fifth or more over tens of seconds,
and that drift, not the program, dominated the spread of raw wall times
between runs.  So every CLI call and every setup probe is paired with an
adjacent calibration process (``CALIBRATION``: interpreter start, numpy
import and a fixed mix of Python and numpy work, none of it from uapca),
and the two times are reported as ``REF_CAL_S * median(t / t_calibration)``:
seconds on a host where the calibration takes ``REF_CAL_S``.  A change to
uapca moves them as it moves raw wall time; host drift cancels.  The raw
medians are printed alongside and kept in the run record.

``--trace 1`` runs the CLI in this process instead, alternating untraced
and traced calls, and reports the per-layer metrics of ``tracing.py``
(medians over the traced calls; counts must repeat exactly) plus the
tracing overhead.

Every call's outputs are checked by the numpy oracle in ``oracle.py``; a
non-zero exit, a timeout or a failed check counts as a failed call, and
``error_rate`` is failed / attempted.  Every output file is hashed with
SHA-256.  The last stdout line is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; a full record of
the run (calls, hashes, spans) goes to ``.bench_out/``.  With
``--workload all`` each workload runs in turn and a table follows.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter
from dataclasses import dataclass

import oracle
import tracing
import workloads

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
MIN_CALLS = 5
CALL_TIMEOUT_S = 120.0
END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
REF_CAL_S = 0.3
# The same kinds of work the CLI does, none of it from uapca: float
# formatting and parsing, one small array per row, a per-row numpy loop,
# rotations of matrix columns in a Python loop, and sampling.
CALIBRATION = """\
import numpy as np
rng = np.random.default_rng(0)
rows = rng.standard_normal((6000, 8)) + 4.0
text = "\\n".join(",".join(map(repr, r)) for r in rows.tolist())
back = [np.array([float(x) for x in line.split(",")]) for line in text.split("\\n")]
acc = np.zeros((8, 8))
for v in back:
    acc += np.outer(v, v)
m = np.eye(16)
for i in range(4000):
    p, q = i % 15, i % 15 + 1
    col = m[:, p].copy()
    m[:, p] = 0.8 * col - 0.6 * m[:, q]
    m[:, q] = 0.6 * col + 0.8 * m[:, q]
z = rng.standard_normal((40000, 12)) @ rng.standard_normal((12, 12))
"""


# Starts one child and reports its wall time and peak memory.  It runs in
# a small interpreter of its own (``python -S -E``) because a child's
# ``ru_maxrss`` starts from the resident size of the process that forked it:
# forked from this harness, which holds numpy and the oracle data, even
# ``python -c pass`` would report the harness's size.
LAUNCHER = """\
import os, signal, sys, time
timeout, out, err, *argv = sys.argv[1:]
killed = []
start = time.perf_counter()
pid = os.fork()
if pid == 0:
    try:
        os.dup2(os.open(out, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644), 1)
        os.dup2(os.open(err, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644), 2)
        os.execv(argv[0], argv)
    finally:
        os._exit(127)
def kill(*_):
    killed.append(pid)
    os.kill(pid, signal.SIGKILL)
signal.signal(signal.SIGALRM, kill)
signal.setitimer(signal.ITIMER_REAL, float(timeout))
_, status, usage = os.wait4(pid, 0)
wall = time.perf_counter() - start
signal.setitimer(signal.ITIMER_REAL, 0)
print(repr(wall), usage.ru_maxrss, os.waitstatus_to_exitcode(status), len(killed))
"""


@dataclass
class Call:
    """One child process: wall time, peak memory, exit code, stdout."""

    wall_s: float
    rss_mb: float
    exit_code: int
    stdout: str
    stderr: str
    timed_out: bool = False


def spawn(argv: list[str], env: dict, cwd: str) -> Call:
    """Run ``argv`` to completion through ``LAUNCHER``; time it from fork to reap."""
    out_path = os.path.join(cwd, "stdout.txt")
    err_path = os.path.join(cwd, "stderr.txt")
    launcher = subprocess.run(
        [sys.executable, "-S", "-E", "-c", LAUNCHER, str(CALL_TIMEOUT_S), out_path,
         err_path, *argv],
        env=env, cwd=cwd, stdin=subprocess.DEVNULL, capture_output=True, text=True,
        timeout=CALL_TIMEOUT_S + 30.0, check=True)
    wall, rss_kib, exit_code, killed = launcher.stdout.split()
    with open(out_path, encoding="utf-8", errors="replace") as fh:
        stdout = fh.read()
    with open(err_path, encoding="utf-8", errors="replace") as fh:
        stderr = fh.read()
    # ru_maxrss is in KiB on Linux.
    return Call(float(wall), int(rss_kib) / 1024.0, int(exit_code), stdout, stderr,
                killed != "0")


def sha256(path: str) -> str:
    h = hashlib.sha256()
    try:
        with open(path, "rb") as fh:
            for block in iter(lambda: fh.read(1 << 20), b""):
                h.update(block)
    except OSError:
        return "missing"
    return h.hexdigest()


class Checker:
    """Oracle verdicts for one workload, cached by the bytes checked."""

    def __init__(self, wl: workloads.Workload):
        self.wl = wl
        self.expected = oracle.expect(wl)
        self._cache: dict[tuple, oracle.Verdict] = {}

    def __call__(self, exit_code: int, stdout: str) -> tuple[oracle.Verdict, dict]:
        hashes = {key: sha256(path) for key, path in self.wl.outputs.items()}
        key = (exit_code, stdout, tuple(sorted(hashes.items())))
        if key not in self._cache:
            self._cache[key] = oracle.check(self.wl, self.expected, exit_code, stdout)
        return self._cache[key], hashes


def _clear_outputs(wl: workloads.Workload) -> None:
    for path in wl.outputs.values():
        with contextlib.suppress(FileNotFoundError):
            os.remove(path)


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    # The workload seed is the only seed the CLI may see.
    env.pop("UAPCA_SEED", None)
    return env


@contextlib.contextmanager
def no_env_seed():
    """Hide ``UAPCA_SEED`` from an in-process CLI call, as ``child_env`` does."""
    saved = os.environ.pop("UAPCA_SEED", None)
    try:
        yield
    finally:
        if saved is not None:
            os.environ["UAPCA_SEED"] = saved


def _room(start: float, steps: list[float], seconds: float) -> bool:
    """Whether one more step of typical length still ends within the run."""
    typical = statistics.median(steps) if steps else 0.0
    return time.perf_counter() - start + typical <= seconds


def run_processes(wl: workloads.Workload, workdir: str, seconds: float) -> dict:
    """End-to-end run: setup probe, CLI call and calibration, in turn."""
    env = child_env()
    cli = [sys.executable, "-m", "uapca", *wl.argv]
    probe = [sys.executable, "-c", "import uapca.cli"]
    calibration = [sys.executable, "-c", CALIBRATION]
    check = Checker(wl)
    timed, records = [], []
    cal_before = [spawn(calibration, env, workdir)]

    def one(is_timed: bool) -> None:
        setup = spawn(probe, env, workdir)
        _clear_outputs(wl)
        call = spawn(cli, env, workdir)
        cal = spawn(calibration, env, workdir)
        # The calibrations just before and just after bracket the call.
        cal_s = (cal_before[0].wall_s + cal.wall_s) / 2.0
        cal_before[0] = cal
        verdict, hashes = check(call.exit_code, call.stdout)
        records.append({"timed": is_timed, "wall_s": call.wall_s, "rss_mb": call.rss_mb,
                        "exit_code": call.exit_code, "timed_out": call.timed_out,
                        "ok": verdict.ok and setup.exit_code == 0 and cal.exit_code == 0,
                        "errors": verdict.errors[:5], "max_rel_err": verdict.max_rel_err,
                        "sha256": hashes, "setup_s": setup.wall_s, "cal_s": cal_s})
        if not verdict.ok:
            print(f"call failed: {'; '.join(verdict.errors[:3])}", file=sys.stderr)
            if call.stderr:
                print(call.stderr.strip().splitlines()[-1], file=sys.stderr)
        if is_timed:
            timed.append(records[-1])

    one(is_timed=False)
    start, steps = time.perf_counter(), []
    while len(timed) < MIN_CALLS or _room(start, steps, seconds):
        t0 = time.perf_counter()
        one(is_timed=True)
        steps.append(time.perf_counter() - t0)

    def column(key):
        return [r[key] for r in timed]

    def calibrated(key):
        return REF_CAL_S * statistics.median(r[key] / r["cal_s"] for r in timed)

    return {
        "attempted": len(records),
        "failed": sum(1 for r in records if not r["ok"]),
        "metrics": {
            "wall_s": calibrated("wall_s"),
            "setup_s": calibrated("setup_s"),
            "peak_rss_mb": statistics.median(column("rss_mb")),
        },
        "samples": len(timed),
        "raw": {key: (statistics.median(column(key)), min(column(key)), max(column(key)))
                for key in ("wall_s", "setup_s", "cal_s", "rss_mb")},
        "max_rel_err": max(r["max_rel_err"] for r in records),
        "records": records,
    }


def _import_uapca():
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    import uapca.cli

    if not os.path.abspath(uapca.cli.__file__).startswith(SRC + os.sep):
        raise RuntimeError(f"imported uapca from {uapca.cli.__file__}, not from {SRC}")
    return sys.modules["uapca.cli"]


def run_traced(wl: workloads.Workload, seconds: float) -> dict:
    """Per-layer run: alternate untraced and traced in-process CLI calls."""
    cli = _import_uapca()
    check = Checker(wl)
    plain, traced, records = [], [], []
    last_tracer = None

    def one(tracer) -> float:
        _clear_outputs(wl)
        buf = io.StringIO()
        with contextlib.ExitStack() as stack:
            if tracer is not None:
                stack.enter_context(tracer)
            stack.enter_context(contextlib.redirect_stdout(buf))
            stack.enter_context(no_env_seed())
            start = time.perf_counter()
            try:
                code = cli.main(list(wl.argv))
            except Exception as exc:  # a crash is a failed call, not a crashed benchmark
                print(f"call raised {exc!r}", file=sys.stderr)
                code = -1
            elapsed = time.perf_counter() - start
        verdict, hashes = check(code, buf.getvalue())
        records.append({"traced": tracer is not None, "seconds": elapsed,
                        "exit_code": code, "ok": verdict.ok, "errors": verdict.errors[:5],
                        "max_rel_err": verdict.max_rel_err, "sha256": hashes})
        if not verdict.ok:
            print(f"call failed: {'; '.join(verdict.errors[:3])}", file=sys.stderr)
        return elapsed

    one(None)
    start, steps = time.perf_counter(), []
    while len(traced) < 3 or _room(start, steps, seconds):
        t0 = time.perf_counter()
        # Alternate which side goes first so drift does not favour either.
        order = (False, True) if len(traced) % 2 == 0 else (True, False)
        for is_traced in order:
            if not is_traced:
                plain.append(one(None))
                continue
            tracer = tracing.Tracer()
            traced.append(one(tracer))
            tracer.probe_moments()
            records[-1]["layers"] = tracer.layer_metrics()
            last_tracer = tracer
        steps.append(time.perf_counter() - t0)

    layer_runs = [r["layers"] for r in records if "layers" in r]
    # Counts repeat exactly (checked below); times are medians.
    metrics = {name: layer_runs[0][name] if name in tracing.COUNTS
               else statistics.median(run[name] for run in layer_runs)
               for name in layer_runs[0]}
    # Each traced call against the untraced call next to it, so host drift cancels.
    metrics["trace.overhead_frac"] = statistics.median(
        t / p for t, p in zip(traced, plain)) - 1.0
    for r in records:
        if "layers" in r and any(r["layers"][n] != layer_runs[0][n] for n in tracing.COUNTS):
            r["ok"] = False
            r["errors"].append("per-layer counts differ from the first traced call")
            print("per-layer counts differ between traced calls", file=sys.stderr)
    return {
        "attempted": len(records),
        "failed": sum(1 for r in records if not r["ok"]),
        "metrics": {name: metrics[name] for name in tracing.PER_LAYER},
        "samples": len(traced),
        "max_rel_err": max(r["max_rel_err"] for r in records),
        "records": records,
        "call_counts": last_tracer.call_counts(),
        "spans": last_tracer.spans,
    }


def host_info() -> dict:
    """Host facts a reading depends on; BLAS threads are left at the library default."""
    import platform

    import numpy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": {k: os.environ.get(k, "default") for k in
                         ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    workdir = os.path.join(ROOT, ".bench_work", f"{name}-seed{seed}-{os.getpid()}")
    os.makedirs(workdir)
    try:
        wl = workloads.generate(name, seed, workdir)
        result = run_traced(wl, seconds) if trace else run_processes(wl, workdir, seconds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(os.path.dirname(workdir))
    result.update(workload=name, seed=seed, trace=trace, argv=wl.argv, host=host_info())
    out_dir = os.path.join(ROOT, ".bench_out")
    os.makedirs(out_dir, exist_ok=True)
    record = os.path.join(out_dir, f"{name}-seed{seed}-trace{int(trace)}.json")
    with open(record, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return result


def _units(trace: bool) -> dict:
    return tracing.PER_LAYER if trace else END_TO_END


def report(result: dict) -> dict:
    """Print the human summary of one run; return its result line."""
    trace = result["trace"]
    units = _units(trace)
    rate = result["failed"] / result["attempted"]
    print(f"workload {result['workload']}  seed {result['seed']}  "
          f"{'traced in-process' if trace else 'child processes'}  "
          f"{result['samples']} timed samples, {result['attempted']} calls attempted")
    for name, value in result["metrics"].items():
        print(f"  {name:<28} {value:<14.6g} {units[name]}")
    if not trace:
        for key, (med, lo, hi) in result["raw"].items():
            print(f"  raw {key:<24} {med:<14.6g} median of {result['samples']}, "
                  f"min {lo:.4g}, max {hi:.4g}")
    print(f"  {'error_rate':<28} {rate:<14.6g} fraction  "
          f"({result['failed']} of {result['attempted']} calls failed)")
    print(f"  {'max_rel_err':<28} {result['max_rel_err']:<14.3g} (largest oracle error)")
    if trace:
        calls = ", ".join(f"{k} {v}" for k, v in result["call_counts"].items() if v)
        print(f"  calls: {calls}")
    hashes = Counter((k, h) for r in result["records"] for k, h in r["sha256"].items())
    for (key, digest), n in sorted(hashes.items()):
        print(f"  sha256 {key} {digest}  ({n} of {result['attempted']} calls)")
    return {
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in result["metrics"].items()},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "uapca", "cli.py")):
        print(f"bench: no uapca sources under {SRC}", file=sys.stderr)
        return 2

    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    lines = {}
    for name in names:
        lines[name] = report(run_workload(name, args.seed, args.seconds, bool(args.trace)))
    if len(names) > 1:
        units = _units(bool(args.trace))
        cols = [*units, "error_rate"]
        print("\n" + f"{'workload':<18}" + "".join(f"{c:>22}" for c in cols))
        for name, line in lines.items():
            cells = [f"{line['metrics'][c]['value']:.4g} {units[c]}" for c in units]
            cells.append(f"{line['failed'] / line['attempted']:.4g} fraction")
            print(f"{name:<18}" + "".join(f"{c:>22}" for c in cells))
        print(json.dumps(lines))
    else:
        print(json.dumps(lines[names[0]]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
