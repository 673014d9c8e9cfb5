"""Deterministic experiment runner for sweeps, predictions and figure data.

Commands write CSV files plus a JSON manifest that echoes the resolved
configuration, per-run convergence reports and the propagation route, so
every output can be regenerated from its manifest alone. Outputs are
byte-identical across repeated runs: the sampling protocol is
deterministic, rows are sorted by (N, g, subsystem) and floats are
printed with 17 significant digits.

Every table goes through ``_write_csv``; ``_run_figures`` runs each figure
product over the grid, one point at a time.

Exit codes: 0 success, 2 convergence failure (partial CSV retained),
3 configuration error (also couplings that ModelParams rejects and a
collapse ``nu`` that is not finite and positive), 4 numerical failure.
"""
from __future__ import annotations

import argparse
import contextlib
import dataclasses
import functools
import json
import os
import sys
import time
from multiprocessing import get_context
from pathlib import Path

import numpy as np

from . import __version__
from .analytics import s1_prediction, scaling_collapse
from .dynamics import (
    AveragingProtocol,
    page_curve,
    profiles,
    time_averaged_entropy,
)
from .errors import (
    BkcError,
    ConfigError,
    CriticalFrameUndefined,
    DomainError,
    MissingReference,
    NonConvergence,
)
from .fourpoint import fourpoint_report
from .gaussian import local_decompose
from .model import ModelParams, PhaseRegime, classify_phase

SWEEP_FIELDS = ("g", "N", "subsystem", "S_mean", "stderr", "n_samples")
_SWEEP_CASTS = (float, int, str, float, float, int)
_BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

_DEFAULTS = {
    "w": "1",
    "delta": "0.25",
    "g": "0,0.2,0.24,0.245,0.249,0.25,0.251,0.255,0.26",
    "n": "16,32,48,64,96,128",
    "cut": "site",
    "site": "",
    "out": "runs",
    "jobs": "1",
    "nu": "0.5",
    "figures": "profiles,page,fourpoint",
}

_PROTOCOL_KEYS = {
    "protocol_t_min": ("t_min", float),
    "protocol_dt": ("dt", float),
    "protocol_initial_samples": ("initial_samples", int),
    "protocol_batch_samples": ("batch_samples", int),
    "protocol_max_samples": ("max_samples", int),
    "protocol_rel_threshold": ("rel_threshold", float),
}


def _fmt(x: float) -> str:
    return "%.17g" % float(x)


def parse_config(path: str | None) -> dict[str, str]:
    """Flat key=value configuration with # comments; unknown keys rejected."""
    cfg = dict(_DEFAULTS)
    if path is None:
        return cfg
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected key=value, got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in _DEFAULTS and key not in _PROTOCOL_KEYS:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
        cfg[key] = value
    return cfg


def _parse_list(text: str, cast, key: str) -> list:
    try:
        return [cast(tok) for tok in text.split(",") if tok.strip() != ""]
    except ValueError as exc:
        raise ConfigError(f"bad value for {key!r}: {text!r}") from exc


def _scalar(cfg: dict[str, str], key: str, cast):
    try:
        return cast(cfg[key])
    except ValueError as exc:
        raise ConfigError(f"bad value for {key!r}: {cfg[key]!r}") from exc


def _grid(cfg: dict[str, str]) -> list[ModelParams]:
    w = _scalar(cfg, "w", float)
    delta = _scalar(cfg, "delta", float)
    gs = _parse_list(cfg["g"], float, "g")
    ns = _parse_list(cfg["n"], int, "n")
    if not gs or not ns:
        raise ConfigError("empty parameter grid")
    points = []
    # a value listed twice (0.2 and 0.20) is one grid point
    for n in sorted(set(ns)):
        for g in sorted(set(gs)):
            try:
                points.append(ModelParams(w=w, delta=delta, g=g, n_sites=n))
            except ValueError as exc:
                raise ConfigError(f"invalid grid point (g={g}, N={n}): {exc}") from exc
    return points


def _protocol_for(params: ModelParams, cfg: dict[str, str]) -> AveragingProtocol:
    overrides = {}
    for key, (attr, cast) in _PROTOCOL_KEYS.items():
        if cfg.get(key, "") != "":
            overrides[attr] = _scalar(cfg, key, cast)
    try:
        return AveragingProtocol.for_params(params, **overrides)
    except ValueError as exc:
        raise ConfigError(f"invalid sampling protocol: {exc}") from exc


def _resolve_site(cfg: dict[str, str], n: int) -> int:
    site = _scalar(cfg, "site", int) if cfg.get("site", "") != "" else n // 2
    if not 0 <= site < n:
        raise ConfigError(f"site {site} out of range for N={n}")
    return site


def _subsystems(cfg: dict[str, str], n: int) -> list[tuple[str, list[int]]]:
    """(label, sites) of every subsystem the configured cut takes on a chain of N = n."""
    cut = cfg["cut"]
    if cut == "site":
        j = _resolve_site(cfg, n)
        return [(f"site:{j}", [j])]
    if cut == "quarter":
        l = max(1, n // 4)
        return [(f"left:{l}", list(range(l)))]
    if cut == "page":
        return [(f"left:{l}", list(range(l))) for l in range(1, n)]
    raise ConfigError(f"unknown cut {cut!r} (expected site, quarter or page)")


def _run_average(average, *args) -> tuple[object, bool, float]:
    """``average(*args)``, whether it converged (else the partial result) and its seconds."""
    started = time.perf_counter()
    try:
        result, converged = average(*args), True
    except NonConvergence as exc:
        result, converged = exc.result, False
    return result, converged, time.perf_counter() - started


def _route(params: ModelParams) -> str:
    """Propagation route for the run records: the closed form on g == delta, else the frame."""
    return "closed-form" if classify_phase(params) is PhaseRegime.CRITICAL else "frame"


def _sweep_row(values, **meta) -> dict:
    """A sweep row: the ``SWEEP_FIELDS`` ``values`` plus manifest ``meta``."""
    return dict(zip(SWEEP_FIELDS, values, strict=True), **meta)


def _page_rows(params: ModelParams, protocol: AveragingProtocol) -> list[dict]:
    """Page curve of one grid point as sweep rows, one per cut l = 1..N-1."""
    curve, converged, seconds = _run_average(page_curve, params, protocol)
    return [_sweep_row((params.g, params.n_sites, f"left:{int(l)}", float(s_mean), float(err),
                        int(curve.n_samples)),
                       converged=converged, protocol=dataclasses.asdict(protocol),
                       route=_route(params), seconds=seconds / curve.lengths.size)
            for l, s_mean, err in zip(curve.lengths, curve.entropies, curve.stderrs)]


def _sweep_point(task) -> list[dict]:
    """Worker: all requested rows for one (g, N) grid point."""
    cfg, w, delta, g, n = task
    params = ModelParams(w=w, delta=delta, g=g, n_sites=n)
    protocol = _protocol_for(params, cfg)
    if cfg["cut"] == "page":
        return _page_rows(params, protocol)
    rows = []
    for label, sites in _subsystems(cfg, n):
        result, converged, seconds = _run_average(time_averaged_entropy, params, sites, protocol)
        rows.append(_sweep_row((g, n, label, result.mean, result.stderr, result.n_samples),
                               converged=converged, protocol=dataclasses.asdict(protocol),
                               route=_route(params), seconds=seconds))
    return rows


def _existing_rows(path: Path) -> dict[tuple, dict]:
    """Parse a previous sweep CSV; how a row ran (converged, protocol, route,
    seconds) is recorded only in the manifest.

    A data row that does not parse is a ConfigError naming its path and line.
    """
    rows = {}
    if not path.exists():
        return rows
    lines = path.read_text().splitlines()
    if not lines or lines[0] != ",".join(SWEEP_FIELDS):
        return rows
    for lineno, line in enumerate(lines[1:], start=2):
        try:
            row = _sweep_row(cast(cell) for cast, cell in
                             zip(_SWEEP_CASTS, line.split(","), strict=True))
        except ValueError as exc:
            raise ConfigError(f"{path}:{lineno}: malformed sweep row {line!r}: {exc}") from exc
        rows[(row["g"], row["N"], row["subsystem"])] = row
    return rows


def _recorded_runs(manifest_path: Path, cfg: dict[str, str]) -> dict[tuple, dict]:
    """Run entries of a previous sweep manifest by (g, N, subsystem); empty if unreadable.

    The CSV has no w or delta column, so a manifest that records other
    couplings than ``cfg`` is a ConfigError: one directory holds one (w, delta).
    """
    try:
        manifest = json.loads(manifest_path.read_text())
        runs = {(run["g"], run["N"], run["subsystem"]): run for run in manifest["runs"]}
        recorded = {key: float(manifest["config"][key]) for key in ("w", "delta")}
    except (OSError, ValueError, KeyError, TypeError):
        return {}
    for key, value in recorded.items():
        wanted = _scalar(cfg, key, float)
        if value != wanted:
            raise ConfigError(f"{manifest_path} records {key} = {value!r}, not {wanted!r}; "
                              "use another out directory")
    return runs


def _write_atomic(path: Path, text: str) -> None:
    """Replace ``path`` in one step, so a killed run never leaves it half written.
    The first write makes the output directory: a config that fails validation makes none."""
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_text(text)
    os.replace(tmp, path)


def _write_csv(path: Path, header: str, rows) -> None:
    """``header`` and one line per row: floats through _fmt, every other cell through str."""
    lines = [header] + [",".join(_fmt(cell) if isinstance(cell, float) else str(cell)
                                 for cell in row) for row in rows]
    _write_atomic(path, "\n".join(lines) + "\n")


def _write_sweep_csv(path: Path, rows) -> None:
    rows = sorted(rows, key=lambda r: (r["N"], r["g"], r["subsystem"]))
    _write_csv(path, ",".join(SWEEP_FIELDS), ([r[k] for k in SWEEP_FIELDS] for r in rows))


def _write_manifest(path: Path, command: str, cfg: dict[str, str], rows: list[dict],
                    started: float, extra: dict | None = None) -> None:
    manifest = {
        "command": command,
        "version": __version__,
        "config": cfg,
        "rows": len(rows),
        "runs": [
            {k: row[k] for k in ("g", "N", "subsystem", "converged", "route", "seconds",
                                 "protocol")
             if k in row}
            for row in sorted(rows, key=lambda r: (r["N"], r["g"], r.get("subsystem", "")))
        ],
        "elapsed_seconds": time.time() - started,
    }
    if extra:
        manifest.update(extra)
    _write_atomic(path, json.dumps(manifest, indent=2, default=float) + "\n")


@contextlib.contextmanager
def _worker_pool(jobs: int):
    """Spawned pool whose workers start with one BLAS thread each.

    Each worker already runs a grid point of its own, so BLAS threads on
    top would oversubscribe the cores. The variables are set before the
    workers import numpy and the parent's values are restored on exit.
    """
    saved = {var: os.environ.get(var) for var in _BLAS_THREAD_VARS}
    os.environ.update(dict.fromkeys(_BLAS_THREAD_VARS, "1"))
    try:
        with get_context("spawn").Pool(jobs) as pool:
            yield pool
    finally:
        for var, value in saved.items():
            if value is None:
                os.environ.pop(var, None)
            else:
                os.environ[var] = value


def cmd_sweep(cfg: dict[str, str]) -> int:
    """Numeric time-averaged entropies over the configured grid.

    Rows of an earlier run in the same directory are reused only where its
    manifest records them as converged under the sampling protocol this
    config resolves for their point; a reused row keeps its whole recorded
    run entry. The CSV and manifest are rewritten after every grid point.
    """
    started = time.time()
    jobs = _scalar(cfg, "jobs", int)
    if jobs < 1:
        raise ConfigError(f"jobs must be at least 1, got {jobs}")
    out = Path(cfg["out"])
    csv_path = out / "sweep.csv"
    manifest_path = out / "sweep.manifest.json"
    recorded = _recorded_runs(manifest_path, cfg)
    rows = _existing_rows(csv_path)
    for key, row in rows.items():
        run = recorded.get(key, {})
        row.update((k, run[k]) for k in ("protocol", "route", "seconds") if k in run)
        row["converged"] = run.get("converged") is True
    tasks = []
    for params in _grid(cfg):
        protocol = dataclasses.asdict(_protocol_for(params, cfg))
        wanted = [(params.g, params.n_sites, label)
                  for label, _ in _subsystems(cfg, params.n_sites)]
        if all(key in rows and rows[key]["converged"] and rows[key].get("protocol") == protocol
               for key in wanted):
            continue
        tasks.append((cfg, params.w, params.delta, params.g, params.n_sites))

    def save() -> None:
        _write_sweep_csv(csv_path, rows.values())
        _write_manifest(manifest_path, "sweep", cfg, list(rows.values()), started)

    def record(batches) -> None:
        for batch in batches:
            rows.update(((r["g"], r["N"], r["subsystem"]), r) for r in batch)
            save()

    if not tasks:
        save()
    elif jobs > 1 and len(tasks) > 1:
        with _worker_pool(jobs) as pool:
            record(pool.imap(_sweep_point, tasks))
    else:
        record(map(_sweep_point, tasks))
    return 2 if any(not r["converged"] for r in rows.values()) else 0


def cmd_analytic(cfg: dict[str, str]) -> int:
    """Closed-form predictions on the sweep schema.

    Single-site rows use the long-time entropy prediction directly; block
    rows use the small-cut linear law l * S1 (symmetrized to min(l, N-l)
    for page output).
    """
    started = time.time()
    out = Path(cfg["out"])
    rows = []
    for params in _grid(cfg):
        s1 = s1_prediction(params)
        for label, sites in _subsystems(cfg, params.n_sites):
            l = len(sites)
            value = s1 if cfg["cut"] == "site" else min(l, params.n_sites - l) * s1
            rows.append(_sweep_row((params.g, params.n_sites, label, value, 0.0, 0),
                                   converged=True, route="analytic", seconds=0.0))
    _write_sweep_csv(out / "analytic.csv", rows)
    _write_manifest(out / "analytic.manifest.json", "analytic", cfg, rows, started)
    return 0


def _read_sweep_rows(path: Path) -> list[dict]:
    if not path.exists():
        raise ConfigError(f"input CSV {path} does not exist")
    rows = list(_existing_rows(path).values())
    if not rows:
        raise ConfigError(f"input CSV {path} holds no parseable rows")
    return rows


def cmd_collapse(cfg: dict[str, str], input_csv: str) -> int:
    """Rescale a sweep CSV onto the critical scaling axes."""
    started = time.time()
    out = Path(cfg["out"])
    delta = _scalar(cfg, "delta", float)
    nu_exp = _scalar(cfg, "nu", float)
    if not 0.0 < nu_exp < np.inf:
        raise ConfigError(f"nu must be finite and positive, got {cfg['nu']!r}")
    cut = cfg["cut"]
    if cut not in ("site", "quarter"):
        raise ConfigError(f"collapse supports cut=site or cut=quarter, got {cut!r}")
    # the one row per (g, N) that sweep and analytic write for this cut
    rows = [r for r in _read_sweep_rows(Path(input_csv))
            if r["subsystem"] == _subsystems(cfg, r["N"])[0][0]]
    if not rows:
        raise ConfigError(f"no rows of cut={cut} in {input_csv}")
    points = [(r["g"], r["N"], r["S_mean"]) for r in rows]
    result = scaling_collapse(points, delta=delta, nu_exp=nu_exp, kind=cut)
    _write_csv(out / "collapse.csv", "x,y,g,N",
               ((result.x[i], result.y[i], result.g_values[i], int(result.n_values[i]))
                for i in np.argsort(result.x, kind="stable")))
    _write_manifest(out / "collapse.manifest.json", "collapse", cfg, [], started,
                    extra={"input": str(input_csv), "nu_exp": nu_exp, "kind": cut,
                           "quality": result.quality})
    return 0


def _figure_profiles(params: ModelParams, cfg: dict[str, str]) -> tuple[list, dict]:
    prof, converged, seconds = _run_average(profiles, params, _protocol_for(params, cfg))
    rows = []
    for j, s_thermal in enumerate(prof.thermal_entropies()):
        decomp = local_decompose(prof.mean_blocks[j])
        rows.append((params.g, params.n_sites, j, prof.entropies[j], prof.stderrs[j],
                     prof.occupations[j], abs(prof.pair_amplitudes[j]), s_thermal,
                     decomp.beta, decomp.z, prof.n_samples))
    return rows, {"subsystem": "profiles", "converged": converged, "route": _route(params),
                  "seconds": seconds}


def _figure_page(params: ModelParams, cfg: dict[str, str]) -> tuple[list, dict]:
    curve, converged, seconds = _run_average(page_curve, params, _protocol_for(params, cfg))
    rows = [(params.g, params.n_sites, int(l), float(s_mean), float(err), int(curve.n_samples))
            for l, s_mean, err in zip(curve.lengths, curve.entropies, curve.stderrs)]
    return rows, {"subsystem": "page", "converged": converged, "route": _route(params),
                  "seconds": seconds}


def _figure_fourpoint(params: ModelParams, cfg: dict[str, str]) -> tuple[list, dict]:
    """Four-point row; a point it cannot evaluate gives no row and an entry with a ``reason``."""
    site = _resolve_site(cfg, params.n_sites)
    started = time.perf_counter()
    try:
        report = fourpoint_report(params, site, _protocol_for(params, cfg))
    except (CriticalFrameUndefined, DomainError) as exc:
        return [], {"reason": str(exc)}
    row = (params.g, params.n_sites, site, report.epsilon4, report.one_over_eps4,
           report.log_correction)
    return [row], {"subsystem": f"site:{site}", "converged": True, "route": "sums",
                   "seconds": time.perf_counter() - started}


_FIGURES = {
    "profiles": (_figure_profiles,
                 "g,N,site,entropy,stderr,occupation,pair_abs,s_thermal,beta,z,n_samples"),
    "page": (_figure_page, "g,N,l,S_mean,stderr,n_samples"),
    "fourpoint": (_figure_fourpoint, "g,N,site,epsilon4,one_over_eps4,log_correction"),
}


def _run_figures(cfg: dict[str, str], names: list[str], command: str) -> int:
    """Write each named product's CSV and ``<command>.manifest.json``: entries with a
    ``reason`` go under ``skipped``, the rest under ``runs``, and exit 2 if one of
    those did not converge."""
    started = time.time()
    out = Path(cfg["out"])
    entries = []
    for name in names:
        figure, header = _FIGURES[name]
        rows = []
        for params in _grid(cfg):
            point_rows, entry = figure(params, cfg)
            rows.extend(point_rows)
            entries.append({"g": params.g, "N": params.n_sites, **entry})
        _write_csv(out / f"{name}.csv", header, rows)
    runs = [entry for entry in entries if "reason" not in entry]
    _write_manifest(out / f"{command}.manifest.json", command, cfg, runs, started,
                    extra={"skipped": [entry for entry in entries if "reason" in entry]})
    return 2 if any(not run["converged"] for run in runs) else 0


def cmd_figures(cfg: dict[str, str]) -> int:
    """Emit the per-figure data products named in the ``figures`` list."""
    # a product named twice runs once
    names = list(dict.fromkeys(_parse_list(cfg["figures"], str.strip, "figures")))
    if not names:
        raise ConfigError("empty figures list; choose from " + ", ".join(sorted(_FIGURES)))
    unknown = [name for name in names if name not in _FIGURES]
    if unknown:
        raise ConfigError(f"unknown figures {unknown}; choose from {sorted(_FIGURES)}")
    return _run_figures(cfg, names, "figures")


def cmd_fourpoint(cfg: dict[str, str]) -> int:
    """Standalone four-point consistency table."""
    return _run_figures(cfg, ["fourpoint"], "fourpoint")


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bkc",
        description="Quench-dynamics sweeps and entanglement analytics for the "
                    "bosonic Kitaev chain.",
    )
    parser.add_argument("--version", action="version", version=f"bkc {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="key=value configuration file")
    common.add_argument("--out", help="output directory")
    common.add_argument("--jobs", type=int, help="worker processes for the grid")
    common.add_argument("--site", type=int, help="0-based probe site")
    common.add_argument("--cut", choices=("site", "quarter", "page"),
                        help="subsystem family")
    sub.add_parser("sweep", parents=[common], help="time-averaged entropy grid")
    sub.add_parser("analytic", parents=[common], help="closed-form predictions")
    collapse = sub.add_parser("collapse", parents=[common],
                              help="finite-size scaling collapse of a sweep CSV")
    collapse.add_argument("input_csv", help="sweep or analytic CSV to collapse")
    collapse.add_argument("--nu", type=float, help="correlation-length exponent")
    sub.add_parser("figures", parents=[common], help="figure data products")
    sub.add_parser("fourpoint", parents=[common], help="four-point consistency table")
    return parser


def _apply_overrides(cfg: dict[str, str], args: argparse.Namespace) -> None:
    for key in ("out", "jobs", "site", "cut", "nu"):
        value = getattr(args, key, None)
        if value is not None:
            cfg[key] = str(value)


_COMMANDS = {
    "sweep": lambda cfg, args: cmd_sweep(cfg),
    "analytic": lambda cfg, args: cmd_analytic(cfg),
    "collapse": lambda cfg, args: cmd_collapse(cfg, args.input_csv),
    "figures": lambda cfg, args: cmd_figures(cfg),
    "fourpoint": lambda cfg, args: cmd_fourpoint(cfg),
}


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        code = exc.code if exc.code is not None else 0
        return 0 if code == 0 else 3
    try:
        cfg = parse_config(args.config)
        _apply_overrides(cfg, args)
        return _COMMANDS[args.command](cfg, args)
    except (ConfigError, MissingReference) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except NonConvergence as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BkcError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
