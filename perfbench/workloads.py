"""The benchmark's workloads: grid points, protocol and bkc command sequence.

A workload is a fixed list of bkc CLI invocations. Sweep points are
requested one invocation at a time into one output directory, so the sweep
CSV grows the way an incrementally extended sweep does. The seed fixes only
the order of those requests (and of the figure products): every seed does
the same work, which keeps run-to-run spread low and lets one committed
reference cover every seed.

All workloads are closed loops with a single client: the next command
starts when the previous one has returned, and ``jobs = 1``.
"""
from __future__ import annotations

import random
from dataclasses import dataclass

W = 1.0
DELTA = 0.25

# Protocol overrides written into every config of a workload, as
# protocol_<key> = value. An empty dict keeps the library default
# (initial 1000, batch 500, rel_threshold 1e-3, max 20000).
_CRITICAL_PROTOCOL = {"initial_samples": 300, "batch_samples": 300, "rel_threshold": 5e-3}
_FIGURES_PROTOCOL = {"initial_samples": 300, "batch_samples": 300, "rel_threshold": 1e-2}
_SMOKE_PROTOCOL = {"initial_samples": 100, "batch_samples": 100, "rel_threshold": 2e-2}


@dataclass(frozen=True)
class Step:
    """One bkc CLI invocation.

    ``args`` follow the command name; the worker appends ``--config`` and
    ``--out``. ``owns`` lists the (csv name, point key) pairs this step
    produces; a key of None means every point of that CSV.
    """

    command: str
    config: str
    args: tuple[str, ...] = ()
    owns: tuple[tuple[str, tuple | None], ...] = ()


@dataclass(frozen=True)
class Workload:
    """Grid, protocol and outputs of one workload; NOTES.md gives the reasons."""

    protocol: dict
    sweep_points: tuple[tuple[str, float, int], ...]   # (cut, g, N)
    analytic: tuple[tuple[float, ...], tuple[int, ...]] | None = None
    figures: tuple[float, int] | None = None            # (g, N)
    outputs: tuple[str, ...] = ()


def _subsystem(cut: str, n: int) -> str:
    return f"site:{n // 2}" if cut == "site" else f"left:{max(1, n // 4)}"


def _config(protocol: dict, **keys) -> str:
    lines = [f"w = {W!r}", f"delta = {DELTA!r}", "jobs = 1"]
    lines += [f"{key} = {value}" for key, value in keys.items()]
    lines += [f"protocol_{key} = {value!r}" for key, value in protocol.items()]
    return "\n".join(lines) + "\n"


def _definitions(smoke: bool) -> dict[str, Workload]:
    if smoke:
        site_points = [("site", g, n) for n in (8, 12) for g in (0.0, 0.3)]
        site_grid = ((0.0, 0.25, 0.3), (8, 12))
        critical_ns, quarter_ns, quarter_gs = (8, 12), (8, 16), (0.0, 0.3)
        figures = (0.2, 8)
        protocols = (_SMOKE_PROTOCOL,) * 3
    else:
        site_points = [("site", g, n) for n in (64, 128) for g in (0.0, 0.2, 0.3)]
        site_points.append(("site", 0.3, 512))
        site_grid = ((0.0, 0.2, 0.25, 0.3), (64, 128, 512))
        critical_ns, quarter_ns, quarter_gs = (32, 64, 96), (64, 128, 256), (0.0, 0.3)
        figures = (0.2, 32)
        protocols = ({}, _CRITICAL_PROTOCOL, _FIGURES_PROTOCOL)
    return {
        "sweep-site": Workload(
            protocol=protocols[0],
            sweep_points=tuple(site_points),
            analytic=site_grid,
            outputs=("sweep.csv", "analytic.csv", "collapse.csv"),
        ),
        "sweep-critical": Workload(
            protocol=protocols[1],
            sweep_points=tuple((cut, DELTA, n) for n in critical_ns
                               for cut in ("site", "quarter")),
            outputs=("sweep.csv",),
        ),
        "figures-blocks": Workload(
            protocol=protocols[2],
            sweep_points=tuple(("quarter", g, n) for n in quarter_ns for g in quarter_gs),
            figures=figures,
            outputs=("sweep.csv", "profiles.csv", "page.csv", "fourpoint.csv"),
        ),
    }


NAMES = tuple(_definitions(False))


def get(name: str, smoke: bool = False) -> Workload:
    """Workload by name; KeyError for an unknown name."""
    return _definitions(smoke)[name]


def steps(workload: Workload, seed: int) -> list[Step]:
    """The workload's commands, with sweep points and figures in seed order."""
    rng = random.Random(seed)
    points = list(workload.sweep_points)
    rng.shuffle(points)
    out = []
    for cut, g, n in points:
        out.append(Step(
            command="sweep",
            config=_config(workload.protocol, g=repr(g), n=n, cut=cut),
            owns=(("sweep.csv", (g, n, _subsystem(cut, n))),),
        ))
    if workload.analytic is not None:
        gs, ns = workload.analytic
        cfg = _config(workload.protocol, g=",".join(map(repr, gs)),
                      n=",".join(map(str, ns)), cut="site")
        out.append(Step(command="analytic", config=cfg, owns=(("analytic.csv", None),)))
        # The frame route has no g = Delta row, which collapse needs as its
        # reference at every N, so the collapse runs on the closed forms.
        out.append(Step(command="collapse", config=cfg, args=("analytic.csv",),
                        owns=(("collapse.csv", None),)))
    if workload.figures is not None:
        g, n = workload.figures
        names = ["profiles", "page", "fourpoint"]
        rng.shuffle(names)
        out.append(Step(
            command="figures",
            config=_config(workload.protocol, g=repr(g), n=n, figures=",".join(names)),
            owns=tuple((f"{name}.csv", None) for name in sorted(names)),
        ))
    return out


def propagators(workload: Workload) -> list[tuple[float, int]]:
    """(g, N) of every propagator the workload's sampling commands build."""
    points = {(g, n) for _, g, n in workload.sweep_points}
    if workload.figures is not None:
        points.add(workload.figures)
    return sorted(points, key=lambda p: (p[1], p[0]))


def samples_per_fourpoint_row(workload: Workload) -> int:
    """Samples log_correction draws per four-point row: the initial batch."""
    return int(workload.protocol.get("initial_samples", 1000))
