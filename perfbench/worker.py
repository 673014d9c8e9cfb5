"""One benchmark repetition in a fresh process: set-up, then the workload's commands.

    python3 perfbench/worker.py REQUEST.json

run.py writes the request (source root, output directory, configs and
arguments of each step, propagators to build, trace flag) and starts this
script with BLAS threads pinned to 1 and BKC_MAX_SAMPLES unset in its
environment, so numpy is never imported under another setting. The result
(timings, exit codes, peak memory, versions, trace summary) is written as
JSON to the path named in the request.
"""
from __future__ import annotations

import json
import os
import resource
import sys
import time
import traceback
from pathlib import Path

import tracing


def _versions() -> dict:
    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
    }


def run(request: dict) -> dict:
    src = Path(request["root"]) / "src"
    sys.path.insert(0, str(src))
    out = Path(request["out"])
    out.mkdir(parents=True)
    configs = []
    for i, step in enumerate(request["steps"]):
        path = out.parent / f"{out.name}.step{i}.cfg"
        path.write_text(step["config"])
        configs.append(path)
    os.chdir(out)

    started = time.perf_counter()
    import bkc
    import bkc.cli
    tracer = None
    if request["trace"]:
        tracer = tracing.Tracer()
        tracer.install()
    for g, n in request["propagators"]:
        bkc.build_propagator(bkc.ModelParams(w=request["w"], delta=request["delta"],
                                             g=g, n_sites=n), None)
    setup_s = time.perf_counter() - started

    if tracer is not None:
        tracer.mark_solve()
    exits = []
    solve_start = time.perf_counter()
    for step, config in zip(request["steps"], configs):
        argv = [step["command"], *step["args"], "--config", str(config), "--out", "."]
        try:
            code = bkc.cli.main(argv)
        except Exception:  # a crash fails this step's points; keep going
            traceback.print_exc()
            code = -1
        exits.append(code)
    solve_s = time.perf_counter() - solve_start

    result = {
        "setup_s": setup_s,
        "solve_s": solve_s,
        "exits": exits,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "bytes_out": sum(p.stat().st_size for p in out.iterdir() if p.is_file()),
        "bkc_file": bkc.__file__,
        "from_checkout": Path(bkc.__file__).resolve().is_relative_to(src.resolve()),
        "blas_threads": {k: os.environ.get(k) for k in
                         ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "max_samples_env": os.environ.get("BKC_MAX_SAMPLES"),
        "versions": _versions(),
        "wrapped": tracing.wrapped_bindings(),
    }
    if tracer is not None:
        result["trace"] = tracer.summary(solve_s)
        tracer.write(request["spans"])
    return result


if __name__ == "__main__":
    req = json.loads(Path(sys.argv[1]).read_text())
    Path(req["result"]).write_text(json.dumps(run(req)))
