"""Tests of the benchmark's own checks.

Run with ``python -m pytest bench -q`` from the root of the repository.
The oracle must accept real CLI outputs and reject a perturbed CSV value,
a dropped avoided-crossing flag and a non-zero exit.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys

import numpy as np
import pytest

import oracle
import run
import tracing
import workloads


def _cli_call(wl) -> tuple[int, str]:
    cli = run._import_uapca()
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf), run.no_env_seed():
        code = cli.main(list(wl.argv))
    return code, buf.getvalue()


SMALL = {
    "project-points": {"rows": 400},
    "project-items": {"count": 120},
    "trace-sweep": {},
    "compare-sampling": {"runs": 3},
}


@pytest.fixture(scope="module", params=list(SMALL))
def called(request, tmp_path_factory):
    name = request.param
    wl = workloads.generate(name, 7, str(tmp_path_factory.mktemp(name)), **SMALL[name])
    code, stdout = _cli_call(wl)
    return wl, oracle.expect(wl), code, stdout


def test_oracle_accepts_cli_outputs(called):
    wl, exp, code, stdout = called
    verdict = oracle.check(wl, exp, code, stdout)
    assert verdict.ok, verdict.errors
    assert verdict.max_rel_err < 1e-9


def test_oracle_rejects_non_zero_exit(called):
    wl, exp, _, stdout = called
    assert not oracle.check(wl, exp, 1, stdout).ok


def _perturb_csv(path: str, row: int, col: int, factor: float) -> str:
    with open(path, encoding="utf-8") as fh:
        original = fh.read()
    lines = original.splitlines()
    cells = lines[row].split(",")
    cells[col] = repr(float(cells[col]) * factor)
    lines[row] = ",".join(cells)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
    return original


# (output, data row, column, factor) per workload: a value the oracle checks.
PERTURB = {
    "project-points": [("projection_csv", 3, 1, 1.0 + 1e-6)],      # a projected mean
    "project-items": [("projection_csv", 5, 4, 1.0 + 1e-6)],       # a projected covariance
    "trace-sweep": [("eigvals_csv", 40, 3, 1.0 + 1e-6),            # a swept eigenvalue
                    ("traces_csv", 9, 4, 1.0 + 1e-6)],             # a factor trace coordinate
    "compare-sampling": [("convergence_csv", 1, 2, 20.0)],         # a median Hellinger
}


def test_oracle_rejects_perturbed_csv_value(called):
    wl, exp, code, stdout = called
    for key, row, col, factor in PERTURB[wl.name]:
        path = wl.outputs[key]
        original = _perturb_csv(path, row, col, factor)
        try:
            assert not oracle.check(wl, exp, code, stdout).ok, key
        finally:
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(original)


def test_oracle_rejects_dropped_crossing_flag(tmp_path):
    wl = workloads.generate("trace-sweep", 7, str(tmp_path))
    exp = oracle.expect(wl)
    code, stdout = _cli_call(wl)
    lines = stdout.splitlines()
    flagged = [i for i, ln in enumerate(lines) if ln.startswith("avoided crossing flagged")]
    assert flagged and exp["flags_sure"], "the sweep workload must produce flags"
    dropped = "\n".join(ln for i, ln in enumerate(lines) if i != flagged[0]) + "\n"
    verdict = oracle.check(wl, exp, code, dropped)
    assert any("missing avoided-crossing flag" in e for e in verdict.errors)


def test_failed_child_process_counts_as_failure(tmp_path):
    wl = workloads.generate("project-items", 7, str(tmp_path), count=50)
    with open(wl.argv[wl.argv.index("--input") + 1], "w", encoding="utf-8") as fh:
        fh.write("{not json")
    call = run.spawn([sys.executable, "-m", "uapca", *wl.argv], run.child_env(), str(tmp_path))
    assert call.exit_code == 1 and "invalid JSON" in call.stderr
    verdict = oracle.check(wl, oracle.expect(wl), call.exit_code, call.stdout)
    assert not verdict.ok


def test_peak_memory_is_the_childs_own(tmp_path):
    ballast = np.ones(32 * 2**20)  # 256 MB resident in the harness
    call = run.spawn([sys.executable, "-c", "pass"], run.child_env(), str(tmp_path))
    assert call.exit_code == 0 and ballast.sum() > 0
    assert call.rss_mb < 40.0, call.rss_mb


def test_child_past_the_timeout_is_killed(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "CALL_TIMEOUT_S", 0.5)
    call = run.spawn([sys.executable, "-c", "import time; time.sleep(30)"], run.child_env(),
                     str(tmp_path))
    assert call.timed_out and call.exit_code == -9 and call.wall_s < 10.0


def test_env_seed_is_hidden_from_in_process_calls(monkeypatch):
    monkeypatch.setenv("UAPCA_SEED", "99")
    with run.no_env_seed():
        assert "UAPCA_SEED" not in os.environ
    assert os.environ["UAPCA_SEED"] == "99"


def test_trapezoid_moments_match_numeric_integration():
    rng = np.random.default_rng(3)
    for _ in range(50):
        a = rng.uniform(-5.0, 5.0)
        b, c, d = a + np.cumsum(rng.uniform(0.0, 2.0, 3) * (rng.uniform(size=3) > 0.25))
        if d == a:
            continue
        x = np.linspace(a, d, 200_001)
        h = 2.0 / (d + c - b - a)
        rise = np.where(b > a, (x - a) / max(b - a, 1e-300), 1.0)
        fall = np.where(d > c, (d - x) / max(d - c, 1e-300), 1.0)
        f = h * np.clip(np.minimum(rise, fall), 0.0, 1.0)
        m = np.trapezoid(x * f, x)
        var = np.trapezoid((x - m) ** 2 * f, x)
        got_m, got_var = oracle.trapezoid_moments(a, b, c, d)
        assert got_m == pytest.approx(m, abs=1e-8)
        assert got_var == pytest.approx(var, rel=1e-6, abs=1e-9)


def test_tracer_reports_zero_calls_for_a_missing_target(tmp_path, monkeypatch):
    monkeypatch.setitem(tracing.TARGETS, "eigen.gone", ("eigen", "no_such_function"))
    wl = workloads.generate("project-items", 7, str(tmp_path), count=30)
    run._import_uapca()
    tracer = tracing.Tracer()
    with tracer:
        code, _ = _cli_call(wl)
    assert code == 0
    counts = tracer.call_counts()
    assert counts["eigen.gone"] == 0
    assert counts["eigen.eig_sym"] == 1 + 2 * 30
    names = {span[0] for span in tracer.spans}
    assert "cli.main" in names and all(span[3] >= 0 for span in tracer.spans[1:])
    metrics = tracer.layer_metrics()
    assert set(metrics) == set(tracing.PER_LAYER) - {"trace.overhead_frac"}


def test_metric_names_match_benchmark_json():
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == tracing.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    with open(os.path.join(os.path.dirname(__file__), "BENCH_trajectory.json"),
              encoding="utf-8") as fh:
        targets = json.load(fh)["per_layer_targets"]
    assert list(targets) == list(tracing.PER_LAYER)
