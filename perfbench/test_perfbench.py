"""Tests of the benchmark's own helpers, plus a smoke run of every workload."""
from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

import benchstats
import reference
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def test_median_quartiles_spread():
    assert benchstats.median([3, 1, 2]) == 2
    assert benchstats.median([4, 1, 3, 2]) == 2.5
    assert benchstats.quartiles(range(1, 11)) == (2.75, 8.25)
    assert benchstats.quartiles([5.0]) == (5.0, 5.0)
    assert benchstats.spread([1, 2, 3, 4, 5]) == pytest.approx(1.0)


def test_percentile_interpolates_and_validates():
    assert benchstats.percentile([5, 1, 4, 2, 3], 50) == 3
    assert benchstats.percentile([0, 10], 25) == 2.5
    assert benchstats.percentile([0, 10], 0) == 0
    assert benchstats.percentile([0, 10], 100) == 10
    with pytest.raises(ValueError):
        benchstats.percentile([], 50)
    with pytest.raises(ValueError):
        benchstats.percentile([1], 101)


def test_tail_percentile_keeps_ten_samples_beyond():
    assert benchstats.tail_percentile(99) is None
    assert benchstats.tail_percentile(100) == 90.0
    assert benchstats.tail_percentile(1000) == 99.0
    assert benchstats.tail_percentile(10000) == 99.9
    assert "p90" in benchstats.summary(range(100))
    assert set(benchstats.summary([1.0, 2.0])) == {"median", "q1", "q3", "n"}


_SWEEP = ("g,N,subsystem,S_mean,stderr,n_samples\n"
          "0,8,site:4,1.5,0.01,100\n"
          "0.25,8,site:4,2.5,0.02,300\n")
_PAGE = ("g,N,l,S_mean,stderr,n_samples\n"
         "0.20000000000000001,8,1,0.5,0.01,200\n"
         "0.20000000000000001,8,2,0.9,0.01,200\n"
         "0.29999999999999999,8,1,0.4,0.01,100\n"
         "0.29999999999999999,8,2,0.7,0.01,100\n")


def _expected():
    return {"sweep.csv": reference.points("sweep.csv", _SWEEP),
            "page.csv": reference.points("page.csv", _PAGE)}


def test_points_are_rows_or_groups():
    expected = _expected()
    assert len(expected["sweep.csv"]) == 2
    assert len(expected["page.csv"]) == 2          # one point per (g, N), not per row
    assert reference.score_rep(expected, {"sweep.csv": _SWEEP, "page.csv": _PAGE},
                               [], 0.25) == set()


def test_failed_points_denominator_and_causes():
    expected = _expected()
    drifted = _SWEEP.replace("1.5,0.01", "1.5000000001,0.01")
    failed = reference.score_rep(expected, {"sweep.csv": drifted, "page.csv": _PAGE},
                                 [], 0.25)
    assert failed == {("sweep.csv", (0.0, 8, "site:4"))}
    # a failed step fails every point it owns; a missing file fails all of its points
    failed = reference.score_rep(expected, {"sweep.csv": _SWEEP, "page.csv": None},
                                 [("sweep.csv", (0.25, 8, "site:4"))], 0.25)
    assert failed == {("sweep.csv", (0.25, 8, "site:4")),
                      ("page.csv", (0.2, 8)), ("page.csv", (0.3, 8))}


def test_tolerances_by_route_and_exact_counts():
    expected = _expected()
    texts = {"page.csv": _PAGE}
    # 1e-11 relative passes on the critical line (1e-10) but not on the frame route
    critical = _SWEEP.replace("2.5,0.02", "2.500000000025,0.02")
    assert reference.score_rep(expected, dict(texts, **{"sweep.csv": critical}), [], 0.25) == set()
    frame = _SWEEP.replace("1.5,0.01", "1.500000000015,0.01")
    assert reference.score_rep(expected, dict(texts, **{"sweep.csv": frame}), [], 0.25)
    recount = _SWEEP.replace("0.01,100", "0.01,101")
    assert reference.score_rep(expected, dict(texts, **{"sweep.csv": recount}), [], 0.25)


def test_seed_orders_but_does_not_change_the_work():
    workload = workloads.get("figures-blocks")
    a, b = workloads.steps(workload, 1), workloads.steps(workload, 2)
    assert a != b
    assert {s.owns for s in a} == {s.owns for s in b}
    assert workloads.steps(workload, 1) == a


def _run(name: str, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", "5",
         "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr[-2000:]
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("name", workloads.NAMES)
def test_smoke_traced_run_of_every_workload(name):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    result = _run(name, 1)
    assert result["correct"] and result["failed"] == 0
    assert set(result["metrics"]) == {m["name"] for m in spec["per_layer"]}
    report = json.loads((ROOT / ".bench_runs" / f"{name}-s5-t1.json").read_text())
    assert result["attempted"] == report["per_rep_points"] * len(report["reps"])
    assert result["metrics"]["dynamics.samples"]["value"] > 0


def test_smoke_untraced_run_reports_end_to_end_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    result = _run("sweep-critical", 0)
    assert result["correct"] and result["attempted"] > 0
    assert set(result["metrics"]) == {m["name"] for m in spec["end_to_end"]}
    assert result["metrics"]["ok_frac"]["value"] == 1.0
