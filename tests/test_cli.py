"""Command-line runner: config parsing, determinism, resume, exit codes."""
import dataclasses
import json
import os
import subprocess
import sys
import warnings

import pytest

from bkc import cli, dynamics
from bkc.analytics import s1_prediction
from bkc.cli import main, parse_config
from bkc.dynamics import AveragingProtocol, page_curve
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
    recorded = json.loads((tmp_path / "c" / "sweep.manifest.json").read_text())["runs"]
    grow = _write_cfg(tmp_path, name="grow.cfg", g="0.1,0.25", n="8",
                      out=tmp_path / "c", **_FAST)
    assert main(["sweep", "--config", grow]) == 0
    assert (tmp_path / "c" / "sweep.csv").read_bytes() == first
    manifest = json.loads((tmp_path / "c" / "sweep.manifest.json").read_text())
    assert manifest["runs"][:1] == recorded
    assert manifest["command"] == "sweep"


def test_rows_of_an_earlier_sweep_keep_their_run_record(tmp_path):
    # a second sweep into the directory with another g carries the first row over
    out = tmp_path / "r"
    first = _write_cfg(tmp_path, name="first.cfg", g="0.2", n="8", out=out, **_FAST)
    assert main(["sweep", "--config", first]) == 0
    [recorded] = json.loads((out / "sweep.manifest.json").read_text())["runs"]
    assert recorded["route"] == "gram" and recorded["seconds"] > 0.0
    second = _write_cfg(tmp_path, name="second.cfg", g="0.3", n="8", out=out, **_FAST)
    assert main(["sweep", "--config", second]) == 0
    runs = json.loads((out / "sweep.manifest.json").read_text())["runs"]
    assert [run["g"] for run in runs] == [0.2, 0.3]
    assert runs[0] == recorded


def test_zero_pairing_averages_converge_on_the_initial_samples(tmp_path):
    # at delta = 0 every entropy is rounding noise, which no relative target fits
    keys = dict(delta="0", g="0.2", n="8", protocol_initial_samples="100",
                protocol_max_samples="200")
    quarter = _write_cfg(tmp_path, name="quarter.cfg", cut="quarter", out=tmp_path / "q",
                         **keys)
    assert main(["sweep", "--config", quarter]) == 0
    [row] = (tmp_path / "q" / "sweep.csv").read_text().splitlines()[1:]
    assert abs(float(row.split(",")[3])) < 1e-12 and row.endswith(",100")
    profile = _write_cfg(tmp_path, name="profile.cfg", figures="profiles",
                         out=tmp_path / "p", **keys)
    assert main(["figures", "--config", profile]) == 0
    lines = (tmp_path / "p" / "profiles.csv").read_text().splitlines()[1:]
    assert len(lines) == 8 and all(line.endswith(",100") for line in lines)


def test_sweep_records_the_closed_form_route_on_the_critical_line(tmp_path):
    cfg = _write_cfg(tmp_path, g="0.2,0.25", n="8", out=tmp_path / "r", **_FAST)
    assert main(["sweep", "--config", cfg]) == 0
    manifest = json.loads((tmp_path / "r" / "sweep.manifest.json").read_text())
    assert {run["g"]: run["route"] for run in manifest["runs"]} == {
        0.2: "gram", 0.25: "closed-form"}


def test_run_records_name_the_pairing_route(tmp_path):
    # at g > delta a block and a Page curve read the pairing matrix; a site its Gram block
    keys = dict(g="0.3", n="8", **_FAST)
    routes = []
    for cut in ("quarter", "site"):
        cfg = _write_cfg(tmp_path, name=f"{cut}.cfg", cut=cut, out=tmp_path / cut, **keys)
        assert main(["sweep", "--config", cfg]) == 0
        [run] = json.loads((tmp_path / cut / "sweep.manifest.json").read_text())["runs"]
        routes.append(run["route"])
    page = _write_cfg(tmp_path, name="page.cfg", figures="page", out=tmp_path / "page", **keys)
    assert main(["figures", "--config", page]) == 0
    [run] = json.loads((tmp_path / "page" / "figures.manifest.json").read_text())["runs"]
    assert run["subsystem"] == "page"
    assert routes + [run["route"]] == ["pairing", "gram", "pairing"]



def test_run_records_name_the_branch_that_ran(tmp_path):
    # each entry takes the route of the result that ran: a site's Gram block, a g < Delta
    # block's rows and QR, the pairing matrix at g > Delta, the closed form on g = Delta;
    # profiles reduce rows, and the four-point table keeps its mode sums
    routes = {}
    for cut, g in (("site", 0.2), ("quarter", 0.2), ("quarter", 0.3), ("site", 0.25)):
        out = tmp_path / f"{cut}-{g}"
        cfg = _write_cfg(tmp_path, name=f"{cut}-{g}.cfg", cut=cut, g=g, n="8", out=out, **_FAST)
        assert main(["sweep", "--config", cfg]) == 0
        [run] = json.loads((out / "sweep.manifest.json").read_text())["runs"]
        routes[cut, g] = run["route"]
    # the four-point table has no row at g > Delta
    for g, figures in ((0.2, "page,profiles,fourpoint"), (0.3, "page,profiles")):
        out = tmp_path / f"figures-{g}"
        cfg = _write_cfg(tmp_path, name=f"figures-{g}.cfg", figures=figures, g=g, n="8",
                         out=out, **_FAST)
        assert main(["figures", "--config", cfg]) == 0
        for run in json.loads((out / "figures.manifest.json").read_text())["runs"]:
            routes[run["subsystem"], g] = run["route"]
    assert routes == {
        ("site", 0.2): "gram", ("quarter", 0.2): "rows", ("quarter", 0.3): "pairing",
        ("site", 0.25): "closed-form", ("page", 0.2): "rows", ("profiles", 0.2): "rows",
        ("site:4", 0.2): "sums", ("page", 0.3): "pairing", ("profiles", 0.3): "rows"}

@pytest.mark.parametrize("n", [2, 3])
def test_page_entries_name_the_route_that_ran(tmp_path, n):
    # a Page curve's route follows the regime, also where its middle cut is one site;
    # at delta = 0 the reciprocal curve is the vacuum's, exactly 0
    routes = {}
    for g, delta in ((0.2, 0.25), (0.25, 0.25), (0.3, 0.25), (0.3, 0.0)):
        out = tmp_path / f"{g}-{delta}"
        cfg = _write_cfg(tmp_path, name=f"{g}-{delta}.cfg", figures="page", g=g, delta=delta,
                         n=n, out=out, **_FAST)
        assert main(["figures", "--config", cfg]) == 0
        [run] = json.loads((out / "figures.manifest.json").read_text())["runs"]
        routes[g, delta] = run["route"]
        values = [float(line.split(",")[3]) for line in
                  (out / "page.csv").read_text().splitlines()[1:]]
        assert len(values) == n - 1
        assert (delta == 0.0) == all(value == 0.0 for value in values)
    assert routes == {(0.2, 0.25): "rows", (0.25, 0.25): "closed-form",
                      (0.3, 0.25): "pairing", (0.3, 0.0): "pairing"}


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


def test_repeated_grid_values_give_one_row_per_point(tmp_path):
    # 0.2 and 0.20 are one coupling, and N = 8 listed twice is one size
    repeated = {"g": "0.2,0.20", "n": "8,8", **_FAST}
    for command, csv in (("analytic", "analytic.csv"), ("sweep", "sweep.csv"),
                         ("figures", "page.csv")):
        out = tmp_path / command
        cfg = _write_cfg(tmp_path, name=f"{command}.cfg", out=out, figures="page", **repeated)
        assert main([command, "--config", cfg]) == 0
        lines = (out / csv).read_text().splitlines()
        assert len(lines) == 1 + (7 if command == "figures" else 1)
        manifest = json.loads((out / f"{command}.manifest.json").read_text())
        assert manifest["rows"] == 1 and len(manifest["runs"]) == 1


def test_analytic_at_zero_delta_is_zero(tmp_path):
    # g = 0 and g = 0.01 at N = 16 lie inside the expansion window
    cfg = _write_cfg(tmp_path, delta="0", g="0,0.01", n="16", out=tmp_path / "z")
    assert main(["analytic", "--config", cfg]) == 0
    lines = (tmp_path / "z" / "analytic.csv").read_text().splitlines()[1:]
    assert len(lines) == 2
    assert [float(line.split(",")[3]) for line in lines] == [0.0, 0.0]


def test_analytic_block_cuts(tmp_path):
    # one block law, l S1, in all three phases: at N = 8 every S1 is the
    # critical expansion, at N = 64 the deep-phase forms off g = Delta
    cfg = _write_cfg(tmp_path, g="0.2,0.25,0.3", n="8,64", cut="quarter", out=tmp_path / "q")
    assert main(["analytic", "--config", cfg]) == 0
    lines = (tmp_path / "q" / "analytic.csv").read_text().splitlines()[1:]
    assert len(lines) == 6
    for line in lines:
        parts = line.split(",")
        p = ModelParams(w=1.0, delta=0.25, g=float(parts[0]), n_sites=int(parts[1]))
        assert parts[2] == f"left:{p.n_sites // 4}"
        assert float(parts[3]) == p.n_sites // 4 * s1_prediction(p)


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


def test_collapse_takes_only_the_rows_of_its_cut(tmp_path, capsys):
    # a Page-curve CSV holds every cut; a quarter collapse takes left:N//4 at each N
    page = _write_cfg(tmp_path, name="page.cfg", g="0.2,0.25", n="8,16", cut="page",
                      out=tmp_path / "p")
    assert main(["analytic", "--config", page]) == 0
    quarter = _write_cfg(tmp_path, name="quarter.cfg", g="0.2,0.25", n="8,16",
                         cut="quarter", out=tmp_path / "q")
    assert main(["collapse", str(tmp_path / "p" / "analytic.csv"), "--config", quarter]) == 0
    lines = (tmp_path / "q" / "collapse.csv").read_text().splitlines()[1:]
    assert len(lines) == 4
    for line in lines:
        _, y, g, n = line.split(",")
        n = int(n)
        s1 = {gv: s1_prediction(ModelParams(w=1.0, delta=0.25, g=gv, n_sites=n))
              for gv in (0.2, 0.25)}
        expected = (n // 4) * (s1[float(g)] - s1[0.25]) / n
        assert float(y) == pytest.approx(expected, rel=1e-12, abs=1e-15)

    # two sites in one CSV: the configured one, or exit 3 naming the cut
    csv = tmp_path / "sites.csv"
    csv.write_text("g,N,subsystem,S_mean,stderr,n_samples\n"
                   "0.25,8,site:0,1.0,0,0\n0.25,8,site:3,2.0,0,0\n"
                   "0.3,8,site:0,0.5,0,0\n0.3,8,site:3,1.0,0,0\n")
    for site, y_ref in (("0", -0.5), ("3", -1.0)):
        cfg = _write_cfg(tmp_path, name=f"site{site}.cfg", site=site, out=tmp_path / site)
        assert main(["collapse", str(csv), "--config", cfg]) == 0
        lines = (tmp_path / site / "collapse.csv").read_text().splitlines()[1:]
        assert [float(line.split(",")[1]) for line in lines] == [0.0, y_ref]
    default = _write_cfg(tmp_path, name="default.cfg", out=tmp_path / "d")
    capsys.readouterr()
    assert main(["collapse", str(csv), "--config", default]) == 3
    assert "cut=site" in capsys.readouterr().err
    assert not (tmp_path / "d").exists()


def test_page_cut_sweep_and_analytic(tmp_path):
    p = ModelParams(w=1.0, delta=0.25, g=0.2, n_sites=8)
    cfg = _write_cfg(tmp_path, g="0.2", n="8", cut="page", out=tmp_path / "s", **_FAST)
    assert main(["sweep", "--config", cfg]) == 0
    rows = [line.split(",") for line in
            (tmp_path / "s" / "sweep.csv").read_text().splitlines()[1:]]
    assert [row[2] for row in rows] == [f"left:{l}" for l in range(1, 8)]
    assert len({row[5] for row in rows}) == 1
    curve = page_curve(p, AveragingProtocol.for_params(p, initial_samples=30,
                                                       rel_threshold=1.0))
    assert [float(row[3]) for row in rows] == list(curve.entropies)
    assert int(rows[0][5]) == curve.n_samples
    recorded = json.loads((tmp_path / "s" / "sweep.manifest.json").read_text())["runs"]
    assert main(["sweep", "--config", cfg]) == 0
    manifest = json.loads((tmp_path / "s" / "sweep.manifest.json").read_text())
    assert manifest["runs"] == recorded

    assert main(["analytic", "--config", cfg]) == 0
    s1 = s1_prediction(p)
    for line in (tmp_path / "s" / "analytic.csv").read_text().splitlines()[1:]:
        l = int(line.split(",")[2].removeprefix("left:"))
        assert float(line.split(",")[3]) == min(l, 8 - l) * s1


def test_collapse_imports_no_numpy_ma(tmp_path):
    cfg = _write_cfg(tmp_path, g="0.25,0.3", n="8,16", out=tmp_path / "c")
    assert main(["analytic", "--config", cfg]) == 0
    code = ("import sys\n"
            "from bkc.cli import main\n"
            f"assert main(['collapse', {str(tmp_path / 'c' / 'analytic.csv')!r}, "
            f"'--config', {cfg!r}]) == 0\n"
            "assert 'numpy.ma' not in sys.modules, 'numpy.ma imported'\n")
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120)
    assert done.returncode == 0, done.stderr


def test_module_entry_point_runs_the_cli():
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-m", "bkc", "--version"], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip()
    bad = subprocess.run([sys.executable, "-m", "bkc", "not-a-command"], env=env,
                         capture_output=True, text=True, timeout=120)
    assert bad.returncode == 3


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
    assert {(run["g"], run["route"]) for run in measured} == {
        (0.2, "rows"), (0.2, "sums"), (0.25, "closed-form")}
    # every measured profiles and Page entry records the protocol of its point
    averaged = [run for run in measured if run["subsystem"] in ("profiles", "page")]
    assert len(averaged) == 4
    for run in averaged:
        p = ModelParams(w=1.0, delta=0.25, g=run["g"], n_sites=run["N"])
        assert run["protocol"] == dataclasses.asdict(AveragingProtocol.for_params(
            p, initial_samples=30, rel_threshold=1.0))
    assert not list((tmp_path / "f").glob("*.tmp"))


def test_unconverged_figures_exit_2_and_skips_are_no_failure(tmp_path):
    out = tmp_path / "cap"
    capped = {"g": "0.2,0.25", "n": "8", "out": out, "protocol_initial_samples": "20",
              "protocol_max_samples": "20", "protocol_rel_threshold": "1e-12"}
    cfg = _write_cfg(tmp_path, **capped)
    assert main(["figures", "--config", cfg]) == 2
    names = ("profiles.csv", "page.csv", "fourpoint.csv")
    first = {name: (out / name).read_bytes() for name in names}
    assert [len(first[name].splitlines()) for name in names] == [1 + 2 * 8, 1 + 2 * 7, 2]
    manifest = json.loads((out / "figures.manifest.json").read_text())
    assert sorted((run["subsystem"], run["g"], run["converged"]) for run in manifest["runs"]) == [
        ("page", 0.2, False), ("page", 0.25, False),
        ("profiles", 0.2, False), ("profiles", 0.25, False), ("site:4", 0.2, True)]
    assert [(s["g"], s["N"]) for s in manifest["skipped"]] == [(0.25, 8)]
    # the same grid with only the four-point table: its skipped critical point is no failure
    four = _write_cfg(tmp_path, name="four.cfg", **{**capped, "out": tmp_path / "four"},
                      figures="fourpoint")
    assert main(["figures", "--config", four]) == 0
    assert main(["fourpoint", "--config", four]) == 0
    assert main(["figures", "--config", cfg]) == 2
    assert {name: (out / name).read_bytes() for name in names} == first


def test_figures_list_accepts_spaces(tmp_path):
    cfg = _write_cfg(tmp_path, g="0.2", n="8", figures="page, profiles",
                     out=tmp_path / "s", **_FAST)
    assert main(["figures", "--config", cfg]) == 0
    assert (tmp_path / "s" / "page.csv").is_file()
    assert (tmp_path / "s" / "profiles.csv").is_file()
    assert not (tmp_path / "s" / "fourpoint.csv").exists()


def test_figure_named_twice_runs_once(tmp_path):
    cfg = _write_cfg(tmp_path, g="0.2", n="8", figures="page, page", out=tmp_path / "f",
                     **_FAST)
    assert main(["figures", "--config", cfg]) == 0
    assert len((tmp_path / "f" / "page.csv").read_text().splitlines()) == 1 + 7
    manifest = json.loads((tmp_path / "f" / "figures.manifest.json").read_text())
    assert [run["subsystem"] for run in manifest["runs"]] == ["page"]


def test_empty_figures_list_exits_3(tmp_path, capsys):
    for i, names in enumerate(("", " , ")):
        cfg = _write_cfg(tmp_path, name=f"empty{i}.cfg", figures=names, out=tmp_path / "e")
        assert main(["figures", "--config", cfg]) == 3
        assert capsys.readouterr().err.startswith("error: empty figures list")
    assert not (tmp_path / "e").exists()


def test_exit_codes(tmp_path, capfd):
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

    # a block spectrum past float range is a numerical failure too, stopped
    # before the SVD: no floating-point warnings and no LAPACK messages
    wide = _write_cfg(
        tmp_path, name="wide.cfg", w="1", delta="0.99", g="0", n="300", cut="quarter",
        protocol_initial_samples="200", protocol_max_samples="400", out=tmp_path / "k",
    )
    capfd.readouterr()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["sweep", "--config", wide]) == 4
    assert [w for w in caught if issubclass(w.category, RuntimeWarning)] == []
    out, err = capfd.readouterr()
    assert err.startswith("error:") and err.count("\n") == 1
    assert "DLASCL" not in out + err

    # non-finite sampling values and fewer than one job are configuration errors
    base = {"g": "0.1", "n": "8", "out": tmp_path / "j", **_FAST}
    bad = [({"protocol_t_min": "nan"}, []), ({"protocol_dt": "inf"}, []),
           ({"protocol_rel_threshold": "nan"}, []), ({}, ["--jobs", "0"]), ({}, ["--jobs", "-4"]),
           ({"g": "0.2,x"}, []), ({"w": "abc"}, []), ({"g": ","}, []), ({"cut": "foo"}, [])]
    capfd.readouterr()
    for i, (keys, extra) in enumerate(bad):
        cfg = _write_cfg(tmp_path, name=f"bad{i}.cfg", **{**base, **keys})
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(["sweep", "--config", cfg, *extra]) == 3
        assert [w for w in caught if issubclass(w.category, RuntimeWarning)] == []
        err = capfd.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1

    # couplings that ModelParams rejects are configuration errors, not tracebacks
    for i, keys in enumerate([{"n": "1"}, {"w": "0.2"}, {"g": "-0.1"}, {"delta": "-1"},
                              {"w": "nan"}]):
        cfg = _write_cfg(tmp_path, name=f"coupling{i}.cfg", **{**base, **keys})
        assert main(["sweep", "--config", cfg]) == 3
        err = capfd.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1


def test_out_of_memory_exits_4(tmp_path, capsys, monkeypatch):
    # n = 100000 asks for a 74.5 GiB mode matrix; the stub fails as numpy would, without
    # allocating anything
    def refuse(params, mode=None):
        raise MemoryError(f"Unable to allocate modes of N = {params.n_sites}")

    monkeypatch.setattr(dynamics, "build_propagator", refuse)
    cfg = _write_cfg(tmp_path, g="0.2", n="100000", out=tmp_path / "oom", **_FAST)
    assert main(["sweep", "--config", cfg]) == 4
    err = capsys.readouterr().err
    assert err == "error: out of memory: Unable to allocate modes of N = 100000\n"


def test_grid_past_phase_resolution_exits_3(tmp_path, capsys):
    # at t_min = 1e18 only a few grid times are distinct and no phase has a digit
    cfg = _write_cfg(tmp_path, g="0.2", n="8", protocol_t_min="1e18", out=tmp_path / "late")
    assert main(["sweep", "--config", cfg]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1 and "phase" in err
    assert not (tmp_path / "late").exists()


def test_figures_check_the_site_before_any_product_runs(tmp_path, capsys):
    cfg = _write_cfg(tmp_path, g="0.2", n="8", site="99", figures="page, fourpoint",
                     out=tmp_path / "late_site", **_FAST)
    assert main(["figures", "--config", cfg]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1 and "site 99" in err
    assert not (tmp_path / "late_site").exists()


def test_collapse_exponent_must_be_finite_and_positive(tmp_path, capsys):
    cfg = _write_cfg(tmp_path, g="0.25,0.26", n="8,16", out=tmp_path / "c")
    assert main(["analytic", "--config", cfg]) == 0
    csv = str(tmp_path / "c" / "analytic.csv")
    assert main(["collapse", csv, "--config", cfg, "--nu", "1"]) == 0
    capsys.readouterr()
    for nu in ("0", "nan", "-1", "inf"):
        assert main(["collapse", csv, "--config", cfg, "--nu", nu]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1
    bad = _write_cfg(tmp_path, name="bad.cfg", g="0.25,0.26", n="8,16", out=tmp_path / "c",
                     nu="nan")
    assert main(["collapse", csv, "--config", bad]) == 3


def test_rejected_config_leaves_no_output_directory(tmp_path, capsys):
    cfg = _write_cfg(tmp_path, g="0.25,0.26", n="8,16", out=tmp_path / "c")
    assert main(["analytic", "--config", cfg]) == 0
    csv = str(tmp_path / "c" / "analytic.csv")
    bad_sweep = _write_cfg(tmp_path, name="nan.cfg", w="nan", out=tmp_path / "s", **_FAST)
    runs = [["collapse", csv, "--config", cfg, "--nu", "0", "--out", str(tmp_path / "n")],
            ["sweep", "--config", bad_sweep],
            ["analytic", "--config", bad_sweep],
            ["figures", "--config", bad_sweep, "--out", str(tmp_path / "f")]]
    for argv in runs:
        assert main(argv) == 3
        assert capsys.readouterr().err.startswith("error:")
    assert sorted(p.name for p in tmp_path.iterdir() if p.is_dir()) == ["c"]


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
    # a file that is not a sweep table is no sweep to resume, and stays as it was
    csv.write_text("g,N,l,S_mean,stderr,n_samples\n0.20000000000000001,8,1,1.5,0.01,30\n")
    table = csv.read_bytes()
    assert main(["sweep", "--config", cfg]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1
    assert csv.read_bytes() == table


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
    assert [(run["route"], run["converged"]) for run in runs] == [("gram", False)]


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
    assert [run["route"] for run in runs] == ["gram", "closed-form"]
    assert [run["protocol"]["initial_samples"] for run in runs] == [60, 60]
    # the same protocol again: both rows are reused with what they recorded
    assert main(["sweep", "--config", longer]) == 0
    resumed = json.loads((out / "sweep.manifest.json").read_text())["runs"]
    assert resumed == runs


def test_sweep_directory_holds_one_pair_of_couplings(tmp_path, capsys):
    # with t_min and dt fixed the protocol does not depend on the couplings,
    # and the CSV has no w or delta column: only the manifest tells them apart
    out = tmp_path / "d"
    keys = dict(g="0.2", n="8", out=out, protocol_t_min="80", protocol_dt="10", **_FAST)
    first = _write_cfg(tmp_path, name="first.cfg", w="1", delta="0.25", **keys)
    assert main(["sweep", "--config", first]) == 0
    written = {path.name: path.read_bytes() for path in out.iterdir()}
    for i, (key, recorded, asked) in enumerate([("delta", "0.25", "0.1"), ("w", "1.0", "2")]):
        other = _write_cfg(tmp_path, name=f"other{i}.cfg",
                           **{"w": "1", "delta": "0.25", **keys, key: asked})
        assert main(["sweep", "--config", other]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1
        assert f"records {key} = {recorded}, not {float(asked)!r}" in err
    assert {path.name: path.read_bytes() for path in out.iterdir()} == written
    # the same couplings written another way are the same directory
    same = _write_cfg(tmp_path, name="same.cfg", w="1.0", delta="0.250", **keys)
    assert main(["sweep", "--config", same]) == 0
    runs = json.loads((out / "sweep.manifest.json").read_text())["runs"]
    assert runs == json.loads(written["sweep.manifest.json"])["runs"]


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
    finished = json.loads((out / "sweep.manifest.json").read_text())["runs"]

    monkeypatch.setattr(cli, "_sweep_point", real)
    assert main(["sweep", "--config", cfg]) == 0
    runs = json.loads((out / "sweep.manifest.json").read_text())["runs"]
    assert runs[:1] == finished
    assert [(run["g"], run["route"]) for run in runs] == [(0.1, "gram"), (0.2, "gram")]
    fresh = _write_cfg(tmp_path, name="fresh.cfg", g="0.1,0.2", n="8",
                       out=tmp_path / "fresh", **_FAST)
    assert main(["sweep", "--config", fresh]) == 0
    assert (out / "sweep.csv").read_bytes() == (tmp_path / "fresh" / "sweep.csv").read_bytes()


def test_parallel_sweep_matches_serial(tmp_path):
    # two grid points on two spawned workers give the serial sweep's bytes and run records
    written = {}
    for jobs in ("1", "2"):
        out = tmp_path / f"jobs{jobs}"
        cfg = _write_cfg(tmp_path, name=f"jobs{jobs}.cfg", g="0.1,0.25", n="8", out=out,
                         jobs=jobs, **_FAST)
        assert main(["sweep", "--config", cfg]) == 0
        runs = json.loads((out / "sweep.manifest.json").read_text())["runs"]
        assert len(runs) == 2 and all(run["seconds"] > 0.0 for run in runs)
        written[jobs] = ((out / "sweep.csv").read_bytes(),
                         [{k: v for k, v in run.items() if k != "seconds"} for run in runs])
    assert written["2"] == written["1"]


def test_pool_workers_start_with_one_blas_thread(monkeypatch):
    monkeypatch.setenv("OMP_NUM_THREADS", "3")
    monkeypatch.delenv("OPENBLAS_NUM_THREADS", raising=False)
    with cli._worker_pool(2) as pool:
        seen = pool.map(os.getenv, cli._BLAS_THREAD_VARS)
    assert seen == ["1", "1", "1"]
    assert os.environ["OMP_NUM_THREADS"] == "3"
    assert "OPENBLAS_NUM_THREADS" not in os.environ


def test_importing_the_cli_leaves_multiprocessing_out():
    # only a sweep with jobs > 1 needs a pool; every other start skips its import cost
    code = ("import sys\n"
            "import bkc.cli\n"
            "assert 'multiprocessing' not in sys.modules, 'multiprocessing imported'\n")
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120)
    assert done.returncode == 0, done.stderr
