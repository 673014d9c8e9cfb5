"""Command-line runner: config parsing, determinism, resume, exit codes."""
import json
import os
import warnings

import pytest

from bkc import cli
from bkc.analytics import s1_prediction
from bkc.cli import main, parse_config
from bkc.errors import ConfigError
from bkc.model import ModelParams


def _write_cfg(tmp_path, name="run.cfg", **keys):
    lines = ["# test configuration", ""]
    for key, value in keys.items():
        lines.append(f"{key} = {value}")
    path = tmp_path / name
    path.write_text("\n".join(lines) + "\n")
    return str(path)


_FAST = {
    "protocol_initial_samples": "30",
    "protocol_rel_threshold": "1.0",
}


def test_parse_config_defaults_and_overrides(tmp_path):
    cfg = parse_config(None)
    assert cfg["delta"] == "0.25"
    assert cfg["cut"] == "site"
    path = _write_cfg(tmp_path, g="0,0.2", n="8", out="elsewhere",
                      protocol_initial_samples="17")
    cfg = parse_config(path)
    assert cfg["g"] == "0,0.2"
    assert cfg["n"] == "8"
    assert cfg["out"] == "elsewhere"
    assert cfg["protocol_initial_samples"] == "17"
    # untouched keys keep their defaults
    assert cfg["w"] == "1"


def test_parse_config_rejects_bad_input(tmp_path):
    bad_key = tmp_path / "bad.cfg"
    bad_key.write_text("mystery = 3\n")
    with pytest.raises(ConfigError):
        parse_config(str(bad_key))
    bad_line = tmp_path / "line.cfg"
    bad_line.write_text("just some words\n")
    with pytest.raises(ConfigError):
        parse_config(str(bad_line))
    with pytest.raises(ConfigError):
        parse_config(str(tmp_path / "missing.cfg"))


def test_sweep_deterministic_and_resumable(tmp_path):
    full = _write_cfg(tmp_path, name="full.cfg", g="0.1,0.25", n="8",
                      out=tmp_path / "a", **_FAST)
    assert main(["sweep", "--config", full]) == 0
    first = (tmp_path / "a" / "sweep.csv").read_bytes()
    assert first.splitlines()[0] == b"g,N,subsystem,S_mean,stderr,n_samples"

    # independent rerun reproduces the file byte for byte
    rerun = _write_cfg(tmp_path, name="rerun.cfg", g="0.1,0.25", n="8",
                       out=tmp_path / "b", **_FAST)
    assert main(["sweep", "--config", rerun]) == 0
    assert (tmp_path / "b" / "sweep.csv").read_bytes() == first

    # partial run, then the full grid resumes the finished point
    part = _write_cfg(tmp_path, name="part.cfg", g="0.1", n="8",
                      out=tmp_path / "c", **_FAST)
    assert main(["sweep", "--config", part]) == 0
    grow = _write_cfg(tmp_path, name="grow.cfg", g="0.1,0.25", n="8",
                      out=tmp_path / "c", **_FAST)
    assert main(["sweep", "--config", grow]) == 0
    assert (tmp_path / "c" / "sweep.csv").read_bytes() == first
    manifest = json.loads((tmp_path / "c" / "sweep.manifest.json").read_text())
    routes = {run["route"] for run in manifest["runs"]}
    assert "resumed" in routes
    assert manifest["command"] == "sweep"


def test_analytic_matches_predictions(tmp_path):
    cfg = _write_cfg(tmp_path, g="0,0.2", n="8,16", out=tmp_path / "out")
    assert main(["analytic", "--config", cfg]) == 0
    lines = (tmp_path / "out" / "analytic.csv").read_text().splitlines()
    assert lines[0] == "g,N,subsystem,S_mean,stderr,n_samples"
    rows = [line.split(",") for line in lines[1:]]
    assert len(rows) == 4
    for g_txt, n_txt, label, s_txt, err_txt, cnt_txt in rows:
        p = ModelParams(w=1.0, delta=0.25, g=float(g_txt), n_sites=int(n_txt))
        assert label == f"site:{p.n_sites // 2}"
        assert float(s_txt) == s1_prediction(p)
        assert float(err_txt) == 0.0 and cnt_txt == "0"


def test_analytic_block_cuts(tmp_path):
    cfg = _write_cfg(tmp_path, g="0.2", n="8", cut="quarter", out=tmp_path / "q")
    assert main(["analytic", "--config", cfg]) == 0
    line = (tmp_path / "q" / "analytic.csv").read_text().splitlines()[1]
    parts = line.split(",")
    p = ModelParams(w=1.0, delta=0.25, g=0.2, n_sites=8)
    assert parts[2] == "left:2"
    assert float(parts[3]) == 2 * s1_prediction(p)


def test_collapse_roundtrip_and_missing_reference(tmp_path):
    cfg = _write_cfg(tmp_path, g="0.25,0.26", n="8,16", out=tmp_path / "c")
    assert main(["analytic", "--config", cfg]) == 0
    csv = str(tmp_path / "c" / "analytic.csv")
    assert main(["collapse", csv, "--config", cfg]) == 0
    lines = (tmp_path / "c" / "collapse.csv").read_text().splitlines()
    assert lines[0] == "x,y,g,N"
    xs = [float(line.split(",")[0]) for line in lines[1:]]
    assert xs == sorted(xs)
    manifest = json.loads((tmp_path / "c" / "collapse.manifest.json").read_text())
    assert "quality" in manifest and manifest["kind"] == "site"
    assert not list((tmp_path / "c").glob("*.tmp"))

    # no g == delta rows: the reference is missing
    bare = _write_cfg(tmp_path, name="bare.cfg", g="0.26", n="8,16",
                      out=tmp_path / "d")
    assert main(["analytic", "--config", bare]) == 0
    assert main(["collapse", str(tmp_path / "d" / "analytic.csv"),
                 "--config", bare]) == 3
    assert main(["collapse", str(tmp_path / "nowhere.csv"), "--config", cfg]) == 3
    page = _write_cfg(tmp_path, name="page.cfg", cut="page", out=tmp_path / "e")
    assert main(["collapse", csv, "--config", page]) == 3


def _reject_constant(name):
    raise ValueError(f"manifest holds {name}, which is not JSON")


def test_figures_products_skip_critical_fourpoint(tmp_path):
    cfg = _write_cfg(tmp_path, g="0.2,0.25", n="8", site="0",
                     out=tmp_path / "f", **_FAST)
    assert main(["figures", "--config", cfg]) == 0
    prof = (tmp_path / "f" / "profiles.csv").read_text().splitlines()
    assert prof[0] == "g,N,site,entropy,stderr,occupation,pair_abs,s_thermal,beta,z,n_samples"
    assert len(prof) == 1 + 2 * 8
    page = (tmp_path / "f" / "page.csv").read_text().splitlines()
    assert page[0] == "g,N,l,S_mean,stderr,n_samples"
    assert len(page) == 1 + 2 * 7
    four = (tmp_path / "f" / "fourpoint.csv").read_text().splitlines()
    assert four[0] == "g,N,site,epsilon4,one_over_eps4,log_correction"
    assert len(four) == 2  # the critical point cannot be framed, so one row
    assert four[1].startswith("0.20000000000000001,8,0,")
    manifest = json.loads((tmp_path / "f" / "figures.manifest.json").read_text(),
                          parse_constant=_reject_constant)
    assert [(s["g"], s["N"]) for s in manifest["skipped"]] == [(0.25, 8)]
    assert manifest["skipped"][0]["reason"]
    measured = manifest["runs"]
    assert manifest["rows"] == len(measured) == 5
    assert all(run["seconds"] > 0.0 for run in measured)
    assert {run["route"] for run in measured} == {"frame", "sums"}
    assert not list((tmp_path / "f").glob("*.tmp"))


def test_figures_list_accepts_spaces(tmp_path):
    cfg = _write_cfg(tmp_path, g="0.2", n="8", figures="page, profiles",
                     out=tmp_path / "s", **_FAST)
    assert main(["figures", "--config", cfg]) == 0
    assert (tmp_path / "s" / "page.csv").is_file()
    assert (tmp_path / "s" / "profiles.csv").is_file()
    assert not (tmp_path / "s" / "fourpoint.csv").exists()


def test_exit_codes(tmp_path):
    assert main(["--version"]) == 0
    assert main(["not-a-command"]) == 3
    unknown_fig = _write_cfg(tmp_path, figures="profiles,nope", out=tmp_path / "g")
    assert main(["figures", "--config", unknown_fig]) == 3

    # exhausting the sample budget leaves a partial CSV and returns 2
    stubborn = _write_cfg(
        tmp_path, name="stubborn.cfg", g="0.1", n="8", out=tmp_path / "h",
        protocol_initial_samples="30", protocol_batch_samples="30",
        protocol_max_samples="60", protocol_rel_threshold="1e-12",
    )
    assert main(["sweep", "--config", stubborn]) == 2
    assert (tmp_path / "h" / "sweep.csv").exists()

    # a squeezing frame past the overflow guard is a numerical failure,
    # reported without floating-point warnings from its exponentials
    blowup = _write_cfg(
        tmp_path, name="blowup.cfg", w="1", delta="0.99", g="0", n="600",
        out=tmp_path / "i",
    )
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["sweep", "--config", blowup]) == 4
    assert [str(w.message) for w in caught if issubclass(w.category, RuntimeWarning)] == []


def test_malformed_sweep_csv_exits_3(tmp_path, capsys):
    out = tmp_path / "bad"
    out.mkdir()
    csv = out / "sweep.csv"
    csv.write_text("g,N,subsystem,S_mean,stderr,n_samples\n"
                   "0.20000000000000001,8,site:4,1.5,0.01,30\n"
                   "abc,8,site:4,1.5,0.01,30\n")
    cfg = _write_cfg(tmp_path, g="0.2", n="8", out=out, **_FAST)
    for argv in (["collapse", str(csv), "--config", cfg], ["sweep", "--config", cfg]):
        assert main(argv) == 3
        err = capsys.readouterr().err
        assert err.startswith("error:") and f"{csv}:3:" in err
        assert "Traceback" not in err


def test_capped_sweep_stays_unconverged_on_rerun(tmp_path):
    capped = _write_cfg(tmp_path, g="0.1", n="8", out=tmp_path / "cap",
                        protocol_initial_samples="5", protocol_batch_samples="5",
                        protocol_max_samples="5", protocol_rel_threshold="1e-12")
    assert main(["sweep", "--config", capped]) == 2
    first = (tmp_path / "cap" / "sweep.csv").read_bytes()
    # the manifest records the row as not converged, so the rerun samples it again
    assert main(["sweep", "--config", capped]) == 2
    assert (tmp_path / "cap" / "sweep.csv").read_bytes() == first
    runs = json.loads((tmp_path / "cap" / "sweep.manifest.json").read_text())["runs"]
    assert [(run["route"], run["converged"]) for run in runs] == [("frame", False)]


def test_resume_reuses_rows_only_under_their_protocol(tmp_path):
    out = tmp_path / "p"
    short = _write_cfg(tmp_path, name="short.cfg", g="0.1,0.25", n="8", out=out, **_FAST)
    assert main(["sweep", "--config", short]) == 0
    longer = _write_cfg(tmp_path, name="long.cfg", g="0.1,0.25", n="8", out=out,
                        protocol_initial_samples="60", protocol_rel_threshold="1.0")
    assert main(["sweep", "--config", longer]) == 0
    lines = (out / "sweep.csv").read_text().splitlines()[1:]
    assert [line.split(",")[-1] for line in lines] == ["60", "60"]
    runs = json.loads((out / "sweep.manifest.json").read_text())["runs"]
    assert [run["route"] for run in runs] == ["frame", "frame"]
    assert [run["protocol"]["initial_samples"] for run in runs] == [60, 60]
    # the same protocol again: both rows are reused with what they recorded
    assert main(["sweep", "--config", longer]) == 0
    resumed = json.loads((out / "sweep.manifest.json").read_text())["runs"]
    assert [run["route"] for run in resumed] == ["resumed", "resumed"]
    for run, before in zip(resumed, runs):
        assert run["protocol"] == before["protocol"]


def test_interrupted_sweep_keeps_finished_points(tmp_path, monkeypatch):
    cfg = _write_cfg(tmp_path, g="0.1,0.2", n="8", out=tmp_path / "k", **_FAST)
    out = tmp_path / "k"
    real = cli._sweep_point
    calls = []

    def killed_at_second_point(task):
        calls.append(task)
        if len(calls) == 2:
            raise KeyboardInterrupt
        return real(task)

    monkeypatch.setattr(cli, "_sweep_point", killed_at_second_point)
    with pytest.raises(KeyboardInterrupt):
        main(["sweep", "--config", cfg])
    lines = (out / "sweep.csv").read_text().splitlines()
    assert len(lines) == 2 and lines[1].startswith("0.10000000000000001,8,site:4,")
    assert sorted(path.name for path in out.iterdir()) == ["sweep.csv", "sweep.manifest.json"]

    monkeypatch.setattr(cli, "_sweep_point", real)
    assert main(["sweep", "--config", cfg]) == 0
    runs = json.loads((out / "sweep.manifest.json").read_text())["runs"]
    assert [(run["g"], run["route"]) for run in runs] == [(0.1, "resumed"), (0.2, "frame")]
    fresh = _write_cfg(tmp_path, name="fresh.cfg", g="0.1,0.2", n="8",
                       out=tmp_path / "fresh", **_FAST)
    assert main(["sweep", "--config", fresh]) == 0
    assert (out / "sweep.csv").read_bytes() == (tmp_path / "fresh" / "sweep.csv").read_bytes()


def test_pool_workers_start_with_one_blas_thread(monkeypatch):
    monkeypatch.setenv("OMP_NUM_THREADS", "3")
    monkeypatch.delenv("OPENBLAS_NUM_THREADS", raising=False)
    with cli._worker_pool(2) as pool:
        seen = pool.map(os.getenv, cli._BLAS_THREAD_VARS)
    assert seen == ["1", "1", "1"]
    assert os.environ["OMP_NUM_THREADS"] == "3"
    assert "OPENBLAS_NUM_THREADS" not in os.environ
