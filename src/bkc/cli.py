"""Deterministic experiment runner for sweeps, predictions and figure data.

Commands write CSV files plus a JSON manifest that echoes the resolved
configuration, per-run convergence reports and the propagation route, so
every output can be regenerated from its manifest alone. Outputs are
byte-identical across repeated runs: the sampling protocol is
deterministic, rows are sorted by (N, g, subsystem) and floats are
printed with 17 significant digits.

Exit codes: 0 success, 2 convergence failure (partial CSV retained),
3 configuration error, 4 numerical failure.
"""
from __future__ import annotations

import argparse
import contextlib
import dataclasses
import json
import math
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
from .fourpoint import epsilon4, log_correction
from .gaussian import local_decompose
from .model import ModelParams

SWEEP_FIELDS = ("g", "N", "subsystem", "S_mean", "stderr", "n_samples")
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
    for n in sorted(ns):
        for g in sorted(gs):
            try:
                points.append(ModelParams(w=w, delta=delta, g=g, n_sites=n))
            except DomainError as exc:
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


def _resolve_site(cfg: dict[str, str], params: ModelParams) -> int:
    if cfg.get("site", "") != "":
        site = _scalar(cfg, "site", int)
    else:
        site = params.n_sites // 2
    if not 0 <= site < params.n_sites:
        raise ConfigError(f"site {site} out of range for N={params.n_sites}")
    return site


def _subsystems(cfg: dict[str, str], params: ModelParams) -> list[tuple[str, list[int]]]:
    cut = cfg["cut"]
    if cut == "site":
        j = _resolve_site(cfg, params)
        return [(f"site:{j}", [j])]
    if cut == "quarter":
        l = max(1, params.n_sites // 4)
        return [(f"left:{l}", list(range(l)))]
    if cut == "page":
        return [(f"left:{l}", list(range(l))) for l in range(1, params.n_sites)]
    raise ConfigError(f"unknown cut {cut!r} (expected site, quarter or page)")


def _run_average(average, *args) -> tuple[object, bool, float]:
    """``average(*args)``, whether it converged (else the partial result) and its seconds."""
    started = time.perf_counter()
    try:
        result, converged = average(*args), True
    except NonConvergence as exc:
        result, converged = exc.result, False
    return result, converged, time.perf_counter() - started


def _page_rows(params: ModelParams, protocol: AveragingProtocol) -> list[dict]:
    """Page curve of one grid point as sweep rows, one per cut l = 1..N-1."""
    curve, converged, seconds = _run_average(page_curve, params, protocol)
    return [{
        "g": params.g, "N": params.n_sites, "subsystem": f"left:{int(l)}",
        "S_mean": float(s_mean), "stderr": float(err),
        "n_samples": int(curve.n_samples), "converged": converged,
        "protocol": dataclasses.asdict(protocol),
        "route": "frame", "seconds": seconds / curve.lengths.size,
    } for l, s_mean, err in zip(curve.lengths, curve.entropies, curve.stderrs)]


def _sweep_point(task) -> list[dict]:
    """Worker: all requested rows for one (g, N) grid point."""
    cfg, w, delta, g, n = task
    params = ModelParams(w=w, delta=delta, g=g, n_sites=n)
    protocol = _protocol_for(params, cfg)
    if cfg["cut"] == "page":
        return _page_rows(params, protocol)
    rows = []
    for label, sites in _subsystems(cfg, params):
        result, converged, seconds = _run_average(time_averaged_entropy, params, sites, protocol)
        rows.append({
            "g": g, "N": n, "subsystem": label,
            "S_mean": result.mean, "stderr": result.stderr,
            "n_samples": result.n_samples, "converged": converged,
            "protocol": dataclasses.asdict(protocol),
            "route": "frame", "seconds": seconds,
        })
    return rows


def _existing_rows(path: Path) -> dict[tuple, dict]:
    """Parse a previous sweep CSV; whether a row converged is not stored there.

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
            g, n, label, s_mean, stderr, n_samples = line.split(",")
            row = {
                "g": float(g), "N": int(n), "subsystem": label,
                "S_mean": float(s_mean), "stderr": float(stderr),
                "n_samples": int(n_samples), "route": "resumed", "seconds": 0.0,
            }
        except ValueError as exc:
            raise ConfigError(f"{path}:{lineno}: malformed sweep row {line!r}: {exc}") from exc
        rows[(row["g"], row["N"], row["subsystem"])] = row
    return rows


def _recorded_runs(manifest_path: Path) -> dict[tuple, dict]:
    """Run entries of a previous sweep manifest by (g, N, subsystem); empty if unreadable."""
    try:
        runs = json.loads(manifest_path.read_text())["runs"]
        return {(run["g"], run["N"], run["subsystem"]): run for run in runs}
    except (OSError, ValueError, KeyError, TypeError):
        return {}


def _write_atomic(path: Path, text: str) -> None:
    """Replace ``path`` in one step, so a killed run never leaves it half written."""
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_text(text)
    os.replace(tmp, path)


def _write_sweep_csv(path: Path, rows) -> None:
    rows = sorted(rows, key=lambda r: (r["N"], r["g"], r["subsystem"]))
    lines = [",".join(SWEEP_FIELDS)]
    for r in rows:
        lines.append(",".join([
            _fmt(r["g"]), str(r["N"]), r["subsystem"],
            _fmt(r["S_mean"]), _fmt(r["stderr"]), str(r["n_samples"]),
        ]))
    _write_atomic(path, "\n".join(lines) + "\n")


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


def _out_dir(cfg: dict[str, str]) -> Path:
    out = Path(cfg["out"])
    out.mkdir(parents=True, exist_ok=True)
    return out


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
    config resolves for their point; a reused row keeps its recorded
    protocol. The CSV and manifest are rewritten after every grid point.
    """
    started = time.time()
    out = _out_dir(cfg)
    csv_path = out / "sweep.csv"
    manifest_path = out / "sweep.manifest.json"
    rows = _existing_rows(csv_path)
    recorded = _recorded_runs(manifest_path)
    for key, row in rows.items():
        run = recorded.get(key, {})
        row["converged"] = run.get("converged") is True
        if "protocol" in run:
            row["protocol"] = run["protocol"]
    tasks = []
    for params in _grid(cfg):
        protocol = dataclasses.asdict(_protocol_for(params, cfg))
        wanted = [(params.g, params.n_sites, label) for label, _ in _subsystems(cfg, params)]
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

    jobs = _scalar(cfg, "jobs", int)
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
    out = _out_dir(cfg)
    rows = []
    for params in _grid(cfg):
        s1 = s1_prediction(params)
        for label, sites in _subsystems(cfg, params):
            l = len(sites)
            value = s1 if cfg["cut"] == "site" else min(l, params.n_sites - l) * s1
            rows.append({
                "g": params.g, "N": params.n_sites, "subsystem": label,
                "S_mean": value, "stderr": 0.0, "n_samples": 0,
                "converged": True, "route": "analytic", "seconds": 0.0,
            })
    csv_path = out / "analytic.csv"
    _write_sweep_csv(csv_path, rows)
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
    out = _out_dir(cfg)
    delta = _scalar(cfg, "delta", float)
    nu_exp = _scalar(cfg, "nu", float)
    cut = cfg["cut"]
    if cut not in ("site", "quarter"):
        raise ConfigError(f"collapse supports cut=site or cut=quarter, got {cut!r}")
    kind = "site" if cut == "site" else "quarter"
    prefix = "site:" if cut == "site" else "left:"
    rows = [r for r in _read_sweep_rows(Path(input_csv))
            if r["subsystem"].startswith(prefix)]
    if not rows:
        raise ConfigError(f"no {prefix}* rows in {input_csv}")
    points = [(r["g"], r["N"], r["S_mean"]) for r in rows]
    result = scaling_collapse(points, delta=delta, nu_exp=nu_exp, kind=kind)
    csv_path = out / "collapse.csv"
    lines = ["x,y,g,N"]
    order = np.argsort(result.x, kind="stable")
    for i in order:
        lines.append(",".join([
            _fmt(result.x[i]), _fmt(result.y[i]),
            _fmt(result.g_values[i]), str(int(result.n_values[i])),
        ]))
    _write_atomic(csv_path, "\n".join(lines) + "\n")
    _write_manifest(
        out / "collapse.manifest.json", "collapse", cfg, [], started,
        extra={"input": str(input_csv), "nu_exp": nu_exp, "kind": kind,
               "quality": result.quality},
    )
    return 0


def _figure_profiles(cfg: dict[str, str], out: Path) -> tuple[list[dict], bool]:
    lines = ["g,N,site,entropy,stderr,occupation,pair_abs,s_thermal,beta,z,n_samples"]
    meta, ok = [], True
    for params in _grid(cfg):
        prof, converged, seconds = _run_average(profiles, params, _protocol_for(params, cfg))
        ok = ok and converged
        for j, s_thermal in enumerate(prof.thermal_entropies()):
            decomp = local_decompose(prof.mean_blocks[j])
            lines.append(",".join([
                _fmt(params.g), str(params.n_sites), str(j),
                _fmt(prof.entropies[j]), _fmt(prof.stderrs[j]),
                _fmt(prof.occupations[j]), _fmt(abs(prof.pair_amplitudes[j])),
                _fmt(s_thermal), _fmt(decomp.beta), _fmt(decomp.z), str(prof.n_samples),
            ]))
        meta.append({"g": params.g, "N": params.n_sites, "subsystem": "profiles",
                     "converged": converged, "route": "frame", "seconds": seconds})
    _write_atomic(out / "profiles.csv", "\n".join(lines) + "\n")
    return meta, ok


def _figure_page(cfg: dict[str, str], out: Path) -> tuple[list[dict], bool]:
    lines = ["g,N,l,S_mean,stderr,n_samples"]
    meta, ok = [], True
    for params in _grid(cfg):
        rows = _page_rows(params, _protocol_for(params, cfg))
        for l, row in enumerate(rows, start=1):
            lines.append(",".join([
                _fmt(row["g"]), str(row["N"]), str(l),
                _fmt(row["S_mean"]), _fmt(row["stderr"]), str(row["n_samples"]),
            ]))
        first = rows[0]
        ok = ok and first["converged"]
        meta.append({"g": params.g, "N": params.n_sites, "subsystem": "page",
                     "converged": first["converged"], "route": first["route"],
                     "seconds": sum(row["seconds"] for row in rows)})
    _write_atomic(out / "page.csv", "\n".join(lines) + "\n")
    return meta, ok


def _figure_fourpoint(cfg: dict[str, str], out: Path) -> tuple[list[dict], bool]:
    """Four-point table; a point it cannot evaluate enters ``meta`` with a ``reason``."""
    lines = ["g,N,site,epsilon4,one_over_eps4,log_correction"]
    meta = []
    for params in _grid(cfg):
        site = _resolve_site(cfg, params)
        started = time.perf_counter()
        try:
            eps = epsilon4(params, site)
            corr = log_correction(params, site, _protocol_for(params, cfg))
        except (CriticalFrameUndefined, DomainError) as exc:
            meta.append({"g": params.g, "N": params.n_sites, "reason": str(exc)})
            continue
        inv = math.inf if eps == 0.0 else 1.0 / eps
        lines.append(",".join([
            _fmt(params.g), str(params.n_sites), str(site),
            _fmt(eps), _fmt(inv), _fmt(corr),
        ]))
        meta.append({"g": params.g, "N": params.n_sites, "subsystem": f"site:{site}",
                     "converged": True, "route": "sums",
                     "seconds": time.perf_counter() - started})
    _write_atomic(out / "fourpoint.csv", "\n".join(lines) + "\n")
    return meta, True


_FIGURES = {
    "profiles": _figure_profiles,
    "page": _figure_page,
    "fourpoint": _figure_fourpoint,
}


def _run_figures(cfg: dict[str, str], names: list[str], command: str) -> int:
    """Write the named products and ``<command>.manifest.json``, whose ``runs``
    are the measured entries; entries with a ``reason`` go under ``skipped``."""
    started = time.time()
    out = _out_dir(cfg)
    all_meta, all_ok = [], True
    for name in names:
        meta, ok = _FIGURES[name](cfg, out)
        all_meta.extend(meta)
        all_ok = all_ok and ok
    _write_manifest(out / f"{command}.manifest.json", command, cfg,
                    [m for m in all_meta if "reason" not in m], started,
                    extra={"skipped": [m for m in all_meta if "reason" in m]})
    return 0 if all_ok else 2


def cmd_figures(cfg: dict[str, str]) -> int:
    """Emit the per-figure data products named in the ``figures`` list."""
    names = _parse_list(cfg["figures"], str.strip, "figures")
    unknown = [name for name in names if name not in _FIGURES]
    if unknown:
        raise ConfigError(f"unknown figures {unknown}; choose from {sorted(_FIGURES)}")
    return _run_figures(cfg, names, "figures")


def cmd_fourpoint(cfg: dict[str, str]) -> int:
    """Standalone four-point consistency table."""
    return _run_figures(cfg, ["fourpoint"], "fourpoint")


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


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        code = exc.code if exc.code is not None else 0
        return 0 if code == 0 else 3
    try:
        cfg = parse_config(args.config)
        _apply_overrides(cfg, args)
        if args.command == "sweep":
            return cmd_sweep(cfg)
        if args.command == "analytic":
            return cmd_analytic(cfg)
        if args.command == "collapse":
            return cmd_collapse(cfg, args.input_csv)
        if args.command == "figures":
            return cmd_figures(cfg)
        if args.command == "fourpoint":
            return cmd_fourpoint(cfg)
        raise ConfigError(f"unknown command {args.command!r}")
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
