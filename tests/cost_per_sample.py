"""Cost per sample of the entropy routes: the tables of the README's "Cost per sample".

    PYTHONPATH=src python tests/cost_per_sample.py [--repeats 9]

Uses numpy and bkc only, pins BLAS to one thread (OPENBLAS_NUM_THREADS=1 unless set),
and is not collected by pytest. Each value is the best of ``--repeats`` timed runs
after one warm-up run (which builds the propagator and its lazy tables), divided by the
samples drawn on the default grid. It prints six Markdown tables:

* a single site N/2 over the first 1,000 samples, at g = 0.2 (frame, Gram block) and
  g = 0.25 = Delta (closed form), N = 128-2048;
* the quarter at g = 0.25 = Delta (closed form, the shear spectrum), N = 64-1024, with
  the sample counts of the reciprocal quarter table;
* the quarter at g = 0.3: rows and QR (``time_series`` with
  ``subsystem_entropy_from_rows``) against ``time_averaged_entropy``, which takes the
  pairing route, N = 64-1024;
* the Page curve at g = 0.3 and at g = 0.25 = Delta: one QR of the full map's rows per
  sample (the route "rows" of ``page_curve`` at g < Delta, run through its sampler in its
  chunks of eight row arrays) against ``page_curve``'s one cross matrix per sample (route
  "pairing", P, at g = 0.3; "closed-form", H = V U^T, on g = Delta), N = 32, 64 and 128;
* the split of the quarter's ``spectrum`` on g = Delta over one chunk of the first grid
  samples: the kernel ``_critical_uv``, the shear Y = V_A - H_AA U_A, the Gram Y Y^T and
  its ``eigvalsh``, each timed on its own, N = 32, 64 and 96.
"""
import argparse
import os
import time

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import numpy as np  # noqa: E402

from bkc import dynamics  # noqa: E402
from bkc.dynamics import (  # noqa: E402
    AveragingProtocol,
    page_curve,
    time_averaged_entropy,
    time_series,
)
from bkc.gaussian import entropy_from_factor, subsystem_entropy_from_rows  # noqa: E402
from bkc.model import ModelParams  # noqa: E402

SITE_NS = (128, 512, 1024, 2048)
QUARTER_SAMPLES = {64: 500, 128: 200, 256: 50, 512: 12, 1024: 4}
PAGE_SAMPLES = {32: 100, 64: 40, 128: 10}


def _params(g: float, n: int) -> ModelParams:
    return ModelParams(w=1.0, delta=0.25, g=g, n_sites=n)


def _per_sample(run, samples: int, repeats: int) -> float:
    """Best seconds per sample of ``run()`` over ``repeats`` timed calls after a warm-up."""
    run()
    best = np.inf
    for _ in range(repeats):
        started = time.perf_counter()
        run()
        best = min(best, time.perf_counter() - started)
    return best / samples


def _protocol(params: ModelParams, samples: int) -> AveragingProtocol:
    return AveragingProtocol.for_params(params, initial_samples=samples, max_samples=samples,
                                        rel_threshold=1.0)


def _rows_page(params: ModelParams, samples: int):
    """One QR of the full map's rows per sample serving every cut, in page_curve's chunks."""
    lengths = np.arange(1, params.n_sites)

    def reduce(stack):
        r_mat = np.linalg.qr(np.swapaxes(stack, -1, -2), mode="r")
        return np.stack([entropy_from_factor(r_mat[:, :2 * l, :2 * l]) for l in lengths], axis=1)

    draw, _ = dynamics._sampler(params, range(params.n_sites), dynamics._of_rows(reduce),
                                _protocol(params, samples), rows=8)
    return lambda: draw(0, samples)


def _critical_split(n: int, repeats: int) -> tuple[int, dict[str, float]]:
    """Seconds per sample of each stage of the g = Delta quarter's spectrum, one chunk."""
    p = _params(0.25, n)
    prop, sites = dynamics.build_propagator(p, None), np.arange(n // 4)
    samples = dynamics._CHUNK_BYTES // dynamics._sample_bytes(p, sites, 0)
    batch = dynamics._GridBatch(_protocol(p, samples), 0, samples, {})
    u_mat, v_mat = prop._critical_uv(sites, batch)

    def shear():
        return v_mat - (v_mat @ u_mat.transpose(0, 2, 1)) @ u_mat

    y_mat = shear()
    gram = y_mat @ y_mat.transpose(0, 2, 1)
    stages = {"kernel": lambda: prop._critical_uv(sites, batch), "shear": shear,
              "Gram": lambda: y_mat @ y_mat.transpose(0, 2, 1),
              "eigvalsh": lambda: np.linalg.eigvalsh(gram),
              "spectrum": lambda: prop.spectrum(sites, batch)}
    return samples, {name: _per_sample(run, samples, repeats) for name, run in stages.items()}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeats", type=int, default=9)
    repeats = parser.parse_args().repeats

    print("Single site N/2, first 1,000 samples, us per sample\n")
    print("| N | g = 0.2 (frame) | g = 0.25 (critical) |\n|---|---|---|")
    for n in SITE_NS:
        cells = []
        for g in (0.2, 0.25):
            p = _params(g, n)
            proto = _protocol(p, 1000)
            cost = _per_sample(lambda: time_averaged_entropy(p, [n // 2], proto), 1000, repeats)
            cells.append(f"{cost * 1e6:,.3g} us")
        print(f"| {n} | {' | '.join(cells)} |")

    print("\nQuarter at g = 0.25 = Delta, ms per sample\n")
    print("| N | samples | closed form |\n|---|---|---|")
    for n, samples in QUARTER_SAMPLES.items():
        p = _params(0.25, n)
        proto = _protocol(p, samples)
        cost = _per_sample(lambda: time_averaged_entropy(p, range(n // 4), proto), samples,
                           repeats)
        print(f"| {n} | {samples} | {cost * 1e3:.3g} ms |")

    print("\nQuarter at g = 0.3, ms per sample\n")
    print("| N | samples | rows and QR | pairing | ratio |\n|---|---|---|---|---|")
    for n, samples in QUARTER_SAMPLES.items():
        p = _params(0.3, n)
        proto = _protocol(p, samples)
        quarter = range(n // 4)
        rows = _per_sample(lambda: time_series(p, quarter, subsystem_entropy_from_rows, proto),
                           samples, repeats)
        pairing = _per_sample(lambda: time_averaged_entropy(p, quarter, proto), samples, repeats)
        print(f"| {n} | {samples} | {rows * 1e3:.3g} ms | {pairing * 1e3:.3g} ms | "
              f"{rows / pairing:.2g}x |")

    for g, route, sizes in ((0.3, "pairing", (32, 64, 128)), (0.25, "H = V U^T", (32, 64, 128))):
        print(f"\nPage curve at g = {g}, ms per sample\n")
        print(f"| N | samples | rows and QR | {route} | ratio |\n|---|---|---|---|---|")
        for n in sizes:
            samples = PAGE_SAMPLES[n]
            p = _params(g, n)
            proto = _protocol(p, samples)
            rows = _per_sample(_rows_page(p, samples), samples, repeats)
            cross = _per_sample(lambda: page_curve(p, proto), samples, repeats)
            print(f"| {n} | {samples} | {rows * 1e3:.3g} ms | {cross * 1e3:.3g} ms | "
                  f"{rows / cross:.2g}x |")

    print("\nQuarter at g = 0.25 = Delta, split of one chunk, us per sample\n")
    print("| N | samples | kernel | shear | Gram | eigvalsh | spectrum |\n"
          "|---|---|---|---|---|---|---|")
    for n in (32, 64, 96):
        samples, cost = _critical_split(n, repeats)
        print(f"| {n} | {samples} | " + " | ".join(f"{c * 1e6:.3g}" for c in cost.values()) + " |")


if __name__ == "__main__":
    main()
