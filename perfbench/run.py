"""Benchmark entry point: run one bkc workload for a fixed time and print its metrics.

    python3 perfbench/run.py --workload sweep-site --seed 1 --seconds 30 --trace 0

Run from a checkout of the repository; the package is imported from its
``src`` directory, nothing is installed. Each repetition is a fresh worker
process (worker.py) with a fresh output directory, BLAS pinned to one
thread and BKC_MAX_SAMPLES unset. Repetitions start while the previous
one's duration still fits in ``--seconds`` (at least two per run), and
every output CSV is checked against ``reference/<workload>`` and for
byte identity across the run's repetitions.

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json (medians
over repetitions); ``--trace 1`` alternates untraced and traced
repetitions and reports the per-layer metrics. The last line of standard
output is one JSON object: correct, attempted, failed, metrics.

Maintenance options: ``--workload all`` runs every workload and prints a
summary; ``--smoke`` swaps in a tiny grid (N <= 16) and checks presence,
exit codes and byte identity instead of reference values;
``--write-reference`` stores the outputs as the new reference.
"""
from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

import benchstats
import reference
import workloads

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
RUNS = ROOT / ".bench_runs"
_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
_MAX_REPS = 64
_RUN_LIMIT_S = 170.0
# Traced wall time may exceed the sum of root spans only by the benchmark's
# glue between commands.
_GLUE_SHARE, _GLUE_FLOOR_S = 0.02, 0.05


def _spec() -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {"end_to_end": {m["name"]: m["unit"] for m in spec["end_to_end"]},
            "per_layer": {m["name"]: m["unit"] for m in spec["per_layer"]}}


def pinned_env() -> dict:
    env = dict(os.environ)
    for var in _THREAD_VARS:
        env[var] = "1"
    env.pop("BKC_MAX_SAMPLES", None)
    return env


def machine() -> dict:
    """nproc, CPU model and cache sizes, read from the kernel's cpu files."""
    info = {"nproc": os.cpu_count(), "usable_cpus": len(os.sched_getaffinity(0))}
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                info["cpu"] = line.split(":", 1)[1].strip()
                break
        for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            if kind != "Instruction":
                info[f"L{level}{'d' if kind == 'Data' else ''}_per_core"] = \
                    (index / "size").read_text().strip()
    except OSError:
        info.setdefault("cpu", "unknown")
    return info


def _samples(texts: dict, workload) -> int:
    """Time samples drawn, from the outputs: n_samples summed over points."""
    total = 0
    for name, text in texts.items():
        if text is None:
            continue
        groups = reference.points(name, text)
        if name == "sweep.csv":
            total += sum(int(row["n_samples"]) for rows in groups.values() for row in rows)
        elif name in ("profiles.csv", "page.csv"):
            total += sum(int(rows[0]["n_samples"]) for rows in groups.values())
        elif name == "fourpoint.csv":
            total += len(groups) * workloads.samples_per_fourpoint_row(workload)
    return total


def _run_rep(k: int, traced: bool, run_dir: Path, base: dict, timeout: float) -> dict:
    request = dict(base, trace=traced, out=str(run_dir / f"rep{k}"),
                   result=str(run_dir / f"rep{k}.result.json"),
                   spans=str(run_dir / f"rep{k}.spans.tsv"))
    req_path = run_dir / f"rep{k}.request.json"
    req_path.write_text(json.dumps(request))
    started = time.perf_counter()
    try:
        proc = subprocess.run([sys.executable, str(BENCH_DIR / "worker.py"), str(req_path)],
                              env=pinned_env(), stdout=sys.stderr, timeout=timeout)
        code = proc.returncode
    except subprocess.TimeoutExpired:   # subprocess.run has killed and reaped it
        code = "timeout"
    rep = {"k": k, "traced": traced, "wall_s": time.perf_counter() - started}
    result_path = Path(request["result"])
    if code != 0 or not result_path.exists():
        rep["error"] = f"worker exited with {code}"
        return rep
    rep.update(json.loads(result_path.read_text()))
    return rep


def _self_check(rep: dict) -> list[str]:
    problems = []
    if not rep.get("from_checkout"):
        problems.append(f"bkc imported from {rep.get('bkc_file')}, not the checkout")
    if any(v != "1" for v in rep["blas_threads"].values()):
        problems.append(f"BLAS threads not pinned: {rep['blas_threads']}")
    if rep["max_samples_env"] is not None:
        problems.append("BKC_MAX_SAMPLES reached the worker")
    if not rep["traced"]:
        if rep["wrapped"]:
            problems.append(f"untraced repetition carries {rep['wrapped']} wrappers")
        return problems
    check = rep["trace"]["check"]
    glue = check["solve_wall_s"] - check["root_sum_s"]
    if check["min_self_s"] < -1e-6:
        problems.append(f"a span's children outlast it by {-check['min_self_s']:.3g} s")
    if abs(check["self_sum_s"] - check["root_sum_s"]) > 1e-6 * max(1.0, check["root_sum_s"]):
        problems.append("layer self-times do not sum to the root spans")
    if not -1e-6 <= glue <= max(_GLUE_SHARE * check["solve_wall_s"], _GLUE_FLOOR_S):
        problems.append(f"layer self-times miss {glue:.4f} s of the traced solve")
    return problems


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 smoke: bool = False, write_reference: bool = False) -> dict:
    """Run one workload; the report feeds _metrics and _print_report."""
    workload = workloads.get(name, smoke)
    steps = workloads.steps(workload, seed)
    ref_dir = BENCH_DIR / "reference" / name
    check_values = not (smoke or write_reference)
    if check_values and not all((ref_dir / f).is_file() for f in workload.outputs):
        raise FileNotFoundError(f"no reference outputs in {ref_dir}")
    run_dir = RUNS / f"{name}-s{seed}-t{int(trace)}-{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    base = {
        "root": str(ROOT), "w": workloads.W, "delta": workloads.DELTA,
        "propagators": workloads.propagators(workload),
        "steps": [{"command": s.command, "config": s.config, "args": list(s.args)}
                  for s in steps],
    }
    reps: list[dict] = []
    started = time.perf_counter()
    while len(reps) < _MAX_REPS:
        elapsed = time.perf_counter() - started
        traced = trace and len(reps) % 2 == 1
        reps.append(_run_rep(len(reps), traced, run_dir, base,
                             timeout=max(10.0, _RUN_LIMIT_S - elapsed)))
        elapsed = time.perf_counter() - started
        longest = max(r["wall_s"] for r in reps[-2:])
        if "error" in reps[-1] or (len(reps) >= 2 and elapsed + longest > seconds):
            break   # a crashed worker ends the run: its points already count as failed
    texts = []
    for rep in reps:
        out = run_dir / f"rep{rep['k']}"
        texts.append({f: (out / f).read_text() if (out / f).is_file() else None
                      for f in workload.outputs})

    if check_values:
        expected = {f: reference.points(f, (ref_dir / f).read_text())
                    for f in workload.outputs}
    else:
        expected = {f: reference.points(f, t or "") for f, t in texts[0].items()}
    problems: list[str] = []
    failed = 0
    per_rep_points = sum(len(p) for p in expected.values())
    raw0 = {f: reference.raw_points(f, t or "") for f, t in texts[0].items()}
    for rep, rep_texts in zip(reps, texts):
        if "error" in rep:
            problems.append(f"repetition {rep['k']}: {rep['error']}")
            failed += per_rep_points
            continue
        problems += [f"repetition {rep['k']}: {p}" for p in _self_check(rep)]
        failed_owns = [own for step, code in zip(steps, rep["exits"]) if code != 0
                       for own in step.owns]
        bad = reference.score_rep(expected, rep_texts, failed_owns, workloads.DELTA,
                                  check_values)
        for f, text in rep_texts.items():
            raw = reference.raw_points(f, text or "")
            bad |= {(f, key) for key in expected[f] if raw.get(key) != raw0[f].get(key)}
        failed += len(bad)
        rep["samples"] = _samples(rep_texts, workload)
    attempted = per_rep_points * len(reps)

    if write_reference:
        if failed or problems:
            raise RuntimeError(f"not writing a reference from a failing run: {problems}")
        ref_dir.mkdir(parents=True, exist_ok=True)
        for f, text in texts[0].items():
            (ref_dir / f).write_text(text)

    spans = [r for r in reps if r.get("traced") and "error" not in r]
    if spans:
        shutil.copyfile(run_dir / f"rep{spans[-1]['k']}.spans.tsv", RUNS / f"{name}.spans.tsv")
    shutil.rmtree(run_dir, ignore_errors=True)
    return {"workload": name, "seed": seed, "trace": trace, "seconds": seconds,
            "reps": reps, "attempted": attempted, "failed": failed,
            "per_rep_points": per_rep_points, "problems": problems,
            "machine": machine()}


def _metrics(report: dict, spec: dict) -> dict:
    good = [r for r in report["reps"] if "error" not in r]
    plain = [r for r in good if not r["traced"]]
    traced = [r for r in good if r["traced"]]
    if not plain or (report["trace"] and not traced):
        raise RuntimeError("no completed repetition to take metrics from")
    if not report["trace"]:
        values = {
            "solve_s": [r["solve_s"] for r in plain],
            "samples_per_s": [r["samples"] / r["solve_s"] for r in plain],
            "setup_s": [r["setup_s"] for r in plain],
            "peak_rss_mb": [r["peak_rss_mb"] for r in plain],
        }
        metrics = {k: benchstats.median(v) for k, v in values.items()}
        metrics["ok_frac"] = 1.0 - report["failed"] / report["attempted"]
        report["summaries"] = {k: benchstats.summary(v) for k, v in values.items()}
        names = spec["end_to_end"]
    else:
        metrics = {}
        for key in traced[0]["trace"]["metrics"]:
            metrics[key] = benchstats.median([r["trace"]["metrics"][key] for r in traced])
        metrics["cli.bytes_out"] = benchstats.median([r["bytes_out"] for r in traced])
        metrics["trace.overhead_s"] = (benchstats.median([r["solve_s"] for r in traced])
                                       - benchstats.median([r["solve_s"] for r in plain]))
        names = spec["per_layer"]
    missing = set(names) ^ set(metrics)
    if missing:
        raise RuntimeError(f"metric set differs from BENCHMARK.json: {sorted(missing)}")
    return {name: {"value": metrics[name], "unit": unit} for name, unit in names.items()}


def _print_report(report: dict, metrics: dict) -> None:
    reps = report["reps"]
    good = [r for r in reps if "error" not in r]
    n_traced = sum(r["traced"] for r in reps)
    print(f"perfbench {report['workload']} seed={report['seed']} trace={int(report['trace'])} "
          f"seconds={report['seconds']:g}: {len(reps)} repetitions "
          f"({len(reps) - n_traced} untraced, {n_traced} traced)")
    env = dict(report["machine"], **(good[0]["versions"] if good else {}))
    print("environment: " + json.dumps(env, sort_keys=True))
    print(f"  failed_frac    {report['failed']}/{report['attempted']} = "
          f"{report['failed'] / report['attempted']:.4g}   (denominator: points attempted = "
          f"{report['per_rep_points']} points x {len(reps)} repetitions)")
    for problem in report["problems"]:
        print(f"  PROBLEM: {problem}")
    for name, summ in report.get("summaries", {}).items():
        print(f"  {name:<14} median {summ['median']:.6g} {metrics[name]['unit']}  "
              f"q1 {summ['q1']:.6g}  q3 {summ['q3']:.6g}  n={summ['n']}")
    if report["trace"]:
        traced = [r for r in good if r["traced"]]
        solve = benchstats.median([r["solve_s"] for r in traced])
        print(f"  layer self-times of the traced solve ({solve:.4g} s, median of "
              f"{len(traced)}; trace.overhead_s {metrics['trace.overhead_s']['value']:.4g}):")
        for layer in traced[0]["trace"]["layers"]:
            t = benchstats.median([r["trace"]["layers"][layer] for r in traced])
            print(f"    {layer:<10} {t:10.4f} s  {100.0 * t / solve:6.2f} %")
        for name, m in metrics.items():
            note = "  (computed from shapes)" if name in (
                "dynamics.rows_mb", "gaussian.factorize_gflop") else ""
            print(f"  {name:<28} {m['value']:.6g} {m['unit']}{note}")


def _result(report: dict, metrics: dict) -> dict:
    return {
        "correct": report["failed"] == 0 and not report["problems"],
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": metrics,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--write-reference", action="store_true")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "bkc" / "__init__.py").is_file():
        print(f"error: no bkc sources under {ROOT / 'src'}; run from a full checkout",
              file=sys.stderr)
        return 2
    spec = _spec()
    names = workloads.NAMES if args.workload == "all" else (args.workload,)
    results = []
    for name in names:
        try:
            report = run_workload(name, args.seed, args.seconds, bool(args.trace),
                                  args.smoke, args.write_reference)
            metrics = _metrics(report, spec)
        except (OSError, RuntimeError) as exc:
            print(f"error: {name}: {exc}", file=sys.stderr)
            return 1
        _print_report(report, metrics)
        RUNS.mkdir(exist_ok=True)
        (RUNS / f"{name}-s{args.seed}-t{args.trace}.json").write_text(
            json.dumps(dict(report, metrics=metrics), indent=1))
        results.append(_result(report, metrics))
    if len(results) > 1:
        results = [{
            "correct": all(r["correct"] for r in results),
            "attempted": sum(r["attempted"] for r in results),
            "failed": sum(r["failed"] for r in results),
            "metrics": {f"{name}.{k}": v for name, r in zip(names, results)
                        for k, v in r["metrics"].items()},
        }]
    print(json.dumps(results[0]))
    return 0

if __name__ == "__main__":
    sys.exit(main())
