"""Per-layer spans around the calls into bkc, for traced repetitions only.

``install`` replaces every public function of the bkc layer modules, in
every bkc module that binds it, with a wrapper that records a span (name,
start, end, parent). The modules import each other's functions by name
(``from .gaussian import subsystem_entropy_from_rows``), so patching the
defining module alone would miss those calls. The Propagator methods are
wrapped on the class. Spans stay in memory and are written out when the
repetition ends.

Layers are the package modules, with two exceptions kept for the metric
names: ``build_propagator`` (defined in dynamics) counts as ``model``, and
the propagation methods and convergence loops get spans of their own.
"""
from __future__ import annotations

import functools
import inspect
import math
import statistics
import sys
import time

MARK = "__perfbench_wrapped__"
LAYERS = ("model", "dynamics", "gaussian", "analytics", "fourpoint", "cli")
LAYER_MODULES = tuple(f"bkc.{name}" for name in LAYERS)

_SPAN_NAMES = {
    "_converge_scalar": "dynamics.loop",
    "_converge_series": "dynamics.loop",
    "symplectic_eigenvalues_from_rows": "gaussian.factorize",
    "symplectic_eigenvalues": "gaussian.factorize",
    "subsystem_entropy_from_rows": "gaussian.entropy",
    "subsystem_entropy": "gaussian.entropy",
    "entropy_kernel": "gaussian.kernel",
}
_PROPAGATE_METHODS = ("symplectic", "subsystem_rows", "entropy_map", "entropy_rows")
_FRAME, _EXPM = "dynamics.propagate.frame", "dynamics.propagate.expm"


def _factorize_flops(args, out) -> float:
    """QR (r only) of the 2N x 2l transpose, two 2l-cube products, SVD values."""
    shape = getattr(args[0], "shape", None)
    if shape is None or len(shape) != 2 or shape[0] > shape[1]:
        return 0.0   # rejected input: not counted
    k, m = shape
    return 2.0 * m * k * k + 6.0 * k ** 3


def _loop_counts(args, out) -> tuple[int, int]:
    """(samples, batches) of one convergence loop from its result and protocol."""
    samples = int(out[0].shape[0])
    protocol = args[1]
    extra = max(0, samples - protocol.initial_samples)
    return samples, 1 + math.ceil(extra / protocol.batch_samples)


def _nbytes(args, out) -> float:
    return float(out.nbytes)


class Tracer:
    """In-memory span store; spans from ``solve_from`` on belong to the solve."""

    def __init__(self):
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.work: list = []
        self.solve_from = 0
        self._stack: list[int] = []
        self._in_propagate = False
        self._build = None

    def _call(self, name, fn, args, kwargs, work):
        idx = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.starts.append(0.0)
        self.ends.append(0.0)
        self.work.append(None)
        self._stack.append(idx)
        self.starts[idx] = time.perf_counter()
        try:
            out = fn(*args, **kwargs)
        finally:
            self.ends[idx] = time.perf_counter()
            self._stack.pop()
        if work is not None:
            self.work[idx] = work(args, out)
        return out

    def _wrap(self, name, fn, work=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return self._call(name, fn, args, kwargs, work)
        setattr(wrapper, MARK, True)
        return wrapper

    def _wrap_propagate(self, fn):
        # lab-route methods call each other; only the outermost call is a span
        @functools.wraps(fn)
        def wrapper(prop, *args, **kwargs):
            if self._in_propagate:
                return fn(prop, *args, **kwargs)
            name = _FRAME if prop.mode.value == "frame" else _EXPM
            self._in_propagate = True
            try:
                return self._call(name, fn, (prop,) + args, kwargs, _nbytes)
            finally:
                self._in_propagate = False
        setattr(wrapper, MARK, True)
        return wrapper

    def install(self) -> int:
        """Patch every binding of every layer function; returns the binding count."""
        import bkc.cli  # noqa: F401  (loads every layer module)
        dynamics = sys.modules["bkc.dynamics"]
        self._build = dynamics.build_propagator
        wrappers = {}
        for modname in LAYER_MODULES:
            module = sys.modules[modname]
            layer = modname.split(".")[1]
            for attr, value in vars(module).items():
                if not inspect.isfunction(value) or value.__module__ != modname:
                    continue
                name = _SPAN_NAMES.get(attr)
                if name is None and attr.startswith("_"):
                    continue
                name = name or f"{layer}.api"
                work = {"symplectic_eigenvalues_from_rows": _factorize_flops,
                        "_converge_scalar": _loop_counts,
                        "_converge_series": _loop_counts}.get(attr)
                wrappers[id(value)] = self._wrap(name, value, work)
        # lru_cache wrappers are not plain functions; add build_propagator by hand
        wrappers[id(self._build)] = self._wrap("model.build", self._build)
        patched = 0
        for modname in [m for m in sys.modules if m == "bkc" or m.startswith("bkc.")]:
            module = sys.modules[modname]
            for attr, value in list(vars(module).items()):
                if id(value) in wrappers:
                    setattr(module, attr, wrappers[id(value)])
                    patched += 1
        for method in _PROPAGATE_METHODS:
            setattr(dynamics.Propagator, method,
                    self._wrap_propagate(getattr(dynamics.Propagator, method)))
            patched += 1
        return patched

    def mark_solve(self) -> None:
        self.solve_from = len(self.names)

    def cache_misses(self) -> int:
        return int(self._build.cache_info().misses)

    def summary(self, solve_wall: float) -> dict:
        """Per-layer metrics of the solve, plus set-up builds and cache misses."""
        n = len(self.names)
        dur = [self.ends[i] - self.starts[i] for i in range(n)]
        child = [0.0] * n
        for i in range(n):
            if self.parents[i] >= 0:
                child[self.parents[i]] += dur[i]
        solve = range(self.solve_from, n)
        by_name: dict[str, list[int]] = {}
        for i in solve:
            by_name.setdefault(self.names[i], []).append(i)

        def total(name):
            return sum(dur[i] for i in by_name.get(name, ()))

        def self_time(prefix):
            return sum(dur[i] - child[i] for i in solve if self.names[i].startswith(prefix))

        def p50_us(*names):
            vals = [dur[i] for name in names for i in by_name.get(name, ())]
            return statistics.median(vals) * 1e6 if vals else 0.0

        propagate = by_name.get(_FRAME, []) + by_name.get(_EXPM, [])
        loops = [self.work[i] for i in by_name.get("dynamics.loop", ())
                 if self.work[i] is not None]
        factorize = by_name.get("gaussian.factorize", [])
        layers = {layer: self_time(layer + ".") for layer in LAYERS}
        roots = sum(dur[i] for i in solve if self.parents[i] < 0)
        metrics = {
            "model.build_s": sum(dur[i] for i in range(n) if self.names[i] == "model.build"),
            "model.cache_misses": self.cache_misses(),
            "dynamics.propagate.frame_s": total(_FRAME),
            "dynamics.propagate.expm_s": total(_EXPM),
            "dynamics.propagate_calls": len(propagate),
            "dynamics.propagate_us_p50": p50_us(_FRAME, _EXPM),
            "dynamics.rows_mb": sum(self.work[i] for i in propagate) / 1e6,
            "dynamics.loop_self_s": self_time("dynamics.loop"),
            "dynamics.samples": sum(s for s, _ in loops),
            "dynamics.batches": sum(b for _, b in loops),
            "gaussian.factorize_s": total("gaussian.factorize"),
            "gaussian.factorize_calls": len(factorize),
            "gaussian.factorize_us_p50": p50_us("gaussian.factorize"),
            "gaussian.factorize_gflop": sum(self.work[i] or 0.0 for i in factorize) / 1e9,
            "gaussian.entropy_self_s": self_time("gaussian.entropy"),
            "gaussian.kernel_s": total("gaussian.kernel"),
            "gaussian.kernel_calls": len(by_name.get("gaussian.kernel", ())),
            "analytics_s": layers["analytics"],
            "fourpoint_s": layers["fourpoint"],
            "cli.self_s": layers["cli"],
        }
        negative = min((dur[i] - child[i] for i in solve), default=0.0)
        return {
            "metrics": metrics,
            "layers": layers,
            "check": {
                "self_sum_s": sum(layers.values()),
                "root_sum_s": roots,
                "solve_wall_s": solve_wall,
                "min_self_s": negative,
            },
        }

    def write(self, path) -> None:
        """Every span as name, start, end, parent index (tab separated)."""
        with open(path, "w") as fh:
            fh.write("name\tstart\tend\tparent\n")
            for i in range(len(self.names)):
                fh.write(f"{self.names[i]}\t{self.starts[i]!r}\t{self.ends[i]!r}\t"
                         f"{self.parents[i]}\n")


def wrapped_bindings() -> int:
    """Number of bkc bindings that carry a benchmark wrapper (0 when untraced)."""
    count = 0
    for modname in [m for m in sys.modules if m == "bkc" or m.startswith("bkc.")]:
        for value in vars(sys.modules[modname]).values():
            if getattr(value, MARK, False):
                count += 1
    dynamics = sys.modules.get("bkc.dynamics")
    if dynamics is not None:
        count += sum(bool(getattr(getattr(dynamics.Propagator, m), MARK, False))
                     for m in _PROPAGATE_METHODS)
    return count
