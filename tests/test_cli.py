import argparse
import dataclasses
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hpdcover
from hpdcover import hpd_set
from hpdcover import cli as cli_mod
from hpdcover.cli import RunConfig, _csv_text, cmd_figure, main, parse_dist_spec, parse_grid_spec
from hpdcover.figures import (
    coverage_panels_rows,
    endpoint_curves_rows,
    length_curves_rows,
    posterior_illustration_rows,
    radius_functions_rows,
)

from conftest import config


def test_parse_dist_spec():
    assert parse_dist_spec("laplace").name == "laplace"
    assert parse_dist_spec("t3").name == "student_t3"
    d = parse_dist_spec("subexp:0.7")
    assert d.eta == 0.7
    with pytest.raises(ValueError):
        parse_dist_spec("weibull")


def test_parse_grid_spec():
    g = parse_grid_spec("0:2:5")
    assert np.allclose(g, [0.0, 0.5, 1.0, 1.5, 2.0])
    with pytest.raises(ValueError):
        parse_grid_spec("0:2")
    with pytest.raises(ValueError):
        parse_grid_spec("3:1:5")


def _read_config(text: str) -> RunConfig:
    """A config file's text as the CLI reads it: its pairs, then from_dict."""
    return RunConfig.from_dict(cli_mod._config_pairs(text))


def test_runconfig_roundtrip():
    # A figure sidecar's config (dataclasses.asdict as JSON) and the same
    # values as config-file text both read back to the run's configuration.
    rc = RunConfig(
        dist="subexp:0.7",
        lam=(0.5, 5.0),
        w=(0.125, 1.0),
        alpha=0.01,
        grid="1:2:7",
        x=1.25,
        method="mc",
        n=12345,
        seed=9,
        mirror=False,
        out="a.csv",
    )
    from_json = RunConfig.from_dict(json.loads(cli_mod._json_text(dataclasses.asdict(rc))))
    text = "".join(f"{k}={','.join(map(str, v)) if isinstance(v, tuple) else v}\n"
                   for k, v in dataclasses.asdict(rc).items())
    # NaN placeholders defeat == on the dataclass; its repr is exact.
    for back in (from_json, _read_config(text)):
        assert repr(back) == repr(rc)
        assert back.lam == rc.lam and back.w == rc.w
        assert back.alpha == rc.alpha and back.mirror is False
        assert math.isnan(back.theta0) and back.x == 1.25


def test_runconfig_rejects_unknown_keys():
    with pytest.raises(ValueError):
        _read_config("nope=1\n")


def test_runconfig_from_dict_reads_as_the_config_file_does():
    # from_dict once handed its values to the dataclass as they came: an
    # unknown key raised TypeError, mirror="no" stayed a truthy string and
    # lam="0.5,5" failed on float('.').
    with pytest.raises(ValueError, match="^unknown config key 'n_base'$"):
        RunConfig.from_dict({"n_base": 4096})
    assert RunConfig.from_dict({"mirror": "no"}).mirror is False
    assert RunConfig.from_dict({"lam": "0.5,5"}).lam == (0.5, 5.0)


@pytest.mark.parametrize("val, want", [("1", True), ("TRUE", True), ("yes", True), ("0", False), ("false", False), ("No", False)])
def test_runconfig_reads_booleans(val, want):
    assert _read_config(f"mirror={val}\n").mirror is want


@pytest.mark.parametrize("val", ["maybe", "", "2", "on"])
def test_runconfig_rejects_other_booleans(val):
    with pytest.raises(ValueError, match="'mirror' takes true or false"):
        _read_config(f"mirror={val}\n")


def test_cli_config_rejects_a_boolean_it_cannot_read(tmp_path, capsys):
    # mirror=maybe once read as false without a word.
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text("mirror=maybe\n")
    assert main(["figure", "1", "--config", str(cfg_file), "--outdir", str(tmp_path / "fig")]) == 2
    assert capsys.readouterr().err == "error: config key 'mirror' takes true or false, got 'maybe'\n"
    assert not (tmp_path / "fig").exists()


@pytest.mark.parametrize("command", [["hpd", "--x", "6.2"], ["coverage", "--grid", "5.5:9:2"],
                                     ["bounds", "--grid", "5.5:9:2"], ["postselect", "--x", "6.2"]])
@pytest.mark.parametrize("line", ["lam=", "w=", "lam=,"])
def test_cli_config_rejects_an_empty_list(tmp_path, capsys, command, line):
    # An empty lam or w list once crashed hpd, bounds and postselect with an
    # IndexError traceback, and made coverage write a header-only CSV and
    # exit 0.
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text(f"dist=laplace\n{line}\n")
    out = tmp_path / "out.txt"
    assert main([*command, "--config", str(cfg_file), "--out", str(out)]) == 2
    assert capsys.readouterr().err == "error: lam and w each take one value or more\n"
    assert not out.exists()


@pytest.mark.parametrize("line, flag, value", [("lam=", "--lambda", "5"), ("w=", "--w", "1")])
def test_cli_flag_overrides_an_empty_list_in_the_config(tmp_path, line, flag, value):
    # A flag overrides every config key, an empty list included.
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text(f"dist=laplace\n{line}\n")
    out = tmp_path / "set.json"
    assert main(["hpd", "--config", str(cfg_file), flag, value, "--x", "6.2", "--out", str(out)]) == 0
    assert out.exists()


@pytest.mark.parametrize(
    "flag, key, value",
    [("--n-dense", "n_dense", "512"), ("--tol-tail", "tol_tail", "1e-8"), ("--n-base", "n_base", "1024")],
    ids=["n_dense", "tol_tail", "n_base"],
)
def test_cli_refuses_the_removed_scan_settings(tmp_path, capsys, flag, key, value):
    # Special abscissas get a fixed geometric ladder, truncated windows a
    # fixed tail cut (scanning.TOL_TAIL) and every scan grid a fixed size
    # rule (scanning.build_grid), so none is a setting: the flag and the
    # config key are each refused with one error line.
    args = ["coverage", "--dist", "laplace", "--grid", "5.5:9:2", "--out", str(tmp_path / "c.csv")]
    with pytest.raises(SystemExit) as exc:
        main(args + [flag, value])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert [line for line in err.splitlines() if "error" in line] == [
        f"hpdcover: error: unrecognized arguments: {flag} {value}"
    ]
    assert "Traceback" not in err
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text(f"{key}={value}\n")
    assert main(args + ["--config", str(cfg_file)]) == 2
    assert capsys.readouterr().err == f"error: unknown config key '{key}'\n"
    assert not (tmp_path / "c.csv").exists()


@pytest.mark.parametrize("text", ["5,", ","])
def test_cli_list_flag_reads_as_its_config_key(tmp_path, capsys, text):
    # --lambda had its own split, without the config reader's empty-piece
    # filter: "--lambda 5," failed on float('') while "lam=5," read (5.0,).
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text(f"lam={text}\n")
    out = tmp_path / "set.json"
    args = ["hpd", "--dist", "laplace", "--x", "6.2", "--out", str(out)]
    flag, keyed = args + ["--lambda", text], args + ["--config", str(cfg_file)]
    if text == ",":
        assert main(flag) == 2 and main(keyed) == 2
        assert capsys.readouterr().err == "error: lam and w each take one value or more\n" * 2
        assert not out.exists()
        return
    load = lambda argv: cli_mod._load_config(cli_mod.build_parser().parse_args(argv))
    assert repr(load(flag)) == repr(load(keyed)) and load(flag).lam == (5.0,)
    assert main(flag) == 0 and out.exists()


def test_cli_hpd_json(tmp_path):
    out = tmp_path / "set.json"
    code = main([
        "hpd", "--dist", "laplace", "--lambda", "5", "--w", "1",
        "--alpha", "0.05", "--x", "6.2", "--out", str(out),
    ])
    assert code == 0
    payload = json.loads(out.read_text())
    cs = hpd_set(config("laplace", 5.0, 1.0), 6.2)
    assert payload["regime"] == "II"
    assert payload["L"] == cs.lower and payload["U"] == cs.upper
    assert payload["length"] == pytest.approx(cs.length)
    assert payload["atom"] == 0.0


def test_cli_hpd_atom_case(tmp_path):
    out = tmp_path / "atom.json"
    code = main([
        "hpd", "--dist", "laplace", "--lambda", "5", "--w", "0.125",
        "--alpha", "0.05", "--x", "1.0", "--out", str(out),
    ])
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["regime"] == "ATOM"
    assert payload["intervals"] == []
    assert payload["L"] is None
    assert payload["atom"] > 0.95


def test_cli_coverage_csv_deterministic(tmp_path):
    args = [
        "coverage", "--dist", "gaussian", "--lambda", "0.5", "--w", "1",
        "--alpha", "0.05", "--grid", "1:3:5", "--method", "exact",
    ]
    out1 = tmp_path / "c1.csv"
    out2 = tmp_path / "c2.csv"
    assert main(args + ["--out", str(out1)]) == 0
    assert main(args + ["--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    lines = out1.read_text().splitlines()
    assert lines[0].split(",")[:4] == ["theta0", "C", "C_minus", "C_plus"]
    assert len(lines) == 6


def test_cli_coverage_negative_grid_start(tmp_path, capsys):
    # A mirrored theta0 grid may follow --grid as a separate argument.
    args = ["coverage", "--dist", "gaussian", "--lambda", "0.5"]
    apart, joined = tmp_path / "apart.csv", tmp_path / "joined.csv"
    assert main(args + ["--grid", "-3:3:7", "--out", str(apart)]) == 0
    assert main(args + ["--grid=-3:3:7", "--out", str(joined)]) == 0
    assert apart.read_bytes() == joined.read_bytes()
    rows = [line.split(",") for line in apart.read_text().splitlines()[1:]]
    assert [float(r[0]) for r in rows] == [-3.0, -2.0, -1.0, 0.0, 1.0, 2.0, 3.0]
    c = [float(r[1]) for r in rows]
    assert c == pytest.approx(c[::-1], abs=1e-12)
    with pytest.raises(SystemExit) as exc:
        main(args + ["--grid", "--out", str(apart)])
    assert exc.value.code == 2
    assert "expected one argument" in capsys.readouterr().err


def test_cli_coverage_mc_seeded(tmp_path):
    out = tmp_path / "mc.csv"
    code = main([
        "coverage", "--dist", "laplace", "--lambda", "0.5", "--w", "1",
        "--alpha", "0.05", "--grid", "1:2:2", "--method", "mc",
        "--n", "20000", "--seed", "3", "--out", str(out),
    ])
    assert code == 0
    rows = out.read_text().splitlines()
    assert rows[1].endswith("monte_carlo(seed=3, n=20000),20000,3")


def test_cli_config_file_with_flag_override(tmp_path):
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text("dist=laplace\nlam=5.0\nw=1.0\nalpha=0.05\nx=6.2\n")
    out = tmp_path / "o.json"
    code = main(["hpd", "--config", str(cfg_file), "--x", "7.0", "--out", str(out)])
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["x"] == 7.0  # flag beats config file


def test_cli_bounds(tmp_path):
    out = tmp_path / "b.json"
    code = main([
        "bounds", "--dist", "laplace", "--lambda", "5", "--w", "1",
        "--alpha", "0.05", "--grid", "5.5:9:4", "--out", str(out),
    ])
    payload = json.loads(out.read_text())
    names = {c["name"] for c in payload["checks"]}
    assert "c_minus_ceiling" in names and "dip_level" in names
    assert code == 0 and payload["passed"]


def test_cli_postselect(tmp_path):
    out = tmp_path / "ps.json"
    code = main([
        "postselect", "--dist", "laplace", "--lambda", "0.5", "--w", "1",
        "--alpha", "0.05", "--x", "3.0", "--out", str(out),
    ])
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["lambda"] == 0.5
    assert len(payload["intervals"]) >= 1


def test_cli_postselect_coverage(tmp_path):
    out = tmp_path / "pc.json"
    code = main([
        "postselect-coverage", "--dist", "laplace", "--lambda", "0.5", "--w", "1",
        "--alpha", "0.05", "--theta0", "2.0", "--n", "20000", "--seed", "1",
        "--out", str(out),
    ])
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["coverage"] >= 0.95 - 3.0 * payload["stderr"]
    assert 0 < payload["acceptance_rate"] <= 1
    assert payload["exact"] == hpdcover.conditional_coverage_exact(config("laplace", 0.5, 1.0), 2.0)
    assert abs(payload["exact"] - 0.95) <= 1e-12
    assert payload["z"] == (payload["coverage"] - payload["exact"]) / payload["stderr"]


def test_cli_postselect_coverage_refuses_an_underflowing_selection(capsys):
    # At lam 60 no gaussian draw about theta0 = 1.5 is selected and the
    # selection mass underflows to 0: a clean exit 2, no traceback.
    argv = ["postselect-coverage", "--dist", "gaussian", "--lambda", "60", "--theta0", "1.5", "--n", "10000"]
    assert main(argv) == 2
    assert capsys.readouterr().err.startswith("error: ")
    with pytest.raises(RuntimeError, match="selection mass"):
        hpdcover.conditional_coverage_exact(config("gaussian", 60.0, 1.0), 1.5)


@pytest.mark.parametrize("command, flag, value, rest", [
    ("hpd", "--x", "-1e8", ["--dist", "gaussian", "--lambda", "2"]),
    ("hpd", "--x", "-2.5E-1", ["--dist", "laplace", "--lambda", "0.5", "--w", "0.25"]),
    ("postselect", "--x", "-3e0", ["--dist", "t3", "--lambda", "1"]),
    ("postselect-coverage", "--theta0", "-1e1", ["--dist", "laplace", "--lambda", "1", "--n", "10000"]),
])
def test_cli_negative_exponent_value_reads_as_glued(tmp_path, command, flag, value, rest):
    # argparse takes "-1e8" after a space for an option; it is glued onto
    # its flag, as a negative --grid range is.
    apart, joined = tmp_path / "apart.json", tmp_path / "joined.json"
    assert main([command, *rest, flag, value, "--out", str(apart)]) == 0
    assert main([command, *rest, f"{flag}={value}", "--out", str(joined)]) == 0
    assert apart.read_bytes() == joined.read_bytes()
    assert json.loads(apart.read_text())["theta0" if flag == "--theta0" else "x"] == float(value)


def test_cli_error_exit_code(tmp_path):
    assert main(["coverage", "--dist", "nope", "--grid", "0:1:2"]) == 2
    assert main(["hpd", "--dist", "laplace"]) == 2  # missing --x


def test_cli_runtime_error_exit_code(capsys):
    # No draw reaches |X| >= 60 under laplace noise at theta0 = 0, so the
    # conditional coverage estimator raises RuntimeError; the CLI must turn
    # it into an error line and exit code 2, not a traceback.
    code = main([
        "postselect-coverage", "--dist", "laplace", "--lambda", "60", "--w", "1",
        "--theta0", "0", "--n", "10000", "--seed", "1",
    ])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "selection event" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("argv", [
    ["coverage", "--dist", "laplace", "--lambda", "1", "--grid", "1:2:2", "--method", "mc",
     "--n", "2000", "--seed", "-3"],
    ["postselect-coverage", "--dist", "laplace", "--lambda", "0.5", "--theta0", "2.0",
     "--n", "10000", "--seed", "-1"],
], ids=["coverage", "postselect-coverage"])
def test_cli_refuses_a_negative_seed(tmp_path, capsys, argv):
    # Both Monte Carlo commands refuse a negative seed as a usage error,
    # naming it: coverage no longer reports it as a failed curve (exit 1).
    out = tmp_path / "out"
    assert main(argv + ["--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "seed" in err and "-" in err
    assert "Traceback" not in err and not out.exists()


@pytest.mark.parametrize("n", [0, -2])
def test_cli_figure_rejects_empty_coverage_grid(tmp_path, capsys, n):
    code = main(["figure", "1", "--dist", "laplace", "--lambda", "0.5", "--fig-grid-n", str(n),
                 "--outdir", str(tmp_path)])
    assert code == 2
    assert capsys.readouterr().err == f"error: fig_grid_n must be >= 1, got {n}\n"


def test_cli_failed_figure_leaves_no_outdir(tmp_path, capsys):
    fresh = tmp_path / "fresh"
    code = main(["figure", "1", "--dist", "laplace", "--lambda", "0.5", "--fig-grid-n", "0",
                 "--outdir", str(fresh)])
    assert code == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert not fresh.exists()


def test_cli_figure_rejects_out(tmp_path, capsys, monkeypatch):
    # figure writes into --outdir; an --out path would be silently ignored.
    monkeypatch.chdir(tmp_path)
    target = tmp_path / "fig.csv"
    with pytest.raises(SystemExit) as exc:
        main(["figure", "3", "--dist", "laplace", "--out", str(target)])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: ") and "--outdir" in err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("n", [0, -5])
def test_cli_coverage_mc_rejects_empty_sample(tmp_path, capsys, n):
    out = tmp_path / "mc.csv"
    code = main(["coverage", "--dist", "laplace", "--lambda", "1", "--grid", "1.5:2:2",
                 "--method", "mc", "--n", str(n), "--out", str(out)])
    assert code == 2
    assert capsys.readouterr().err == f"error: n must be an integer >= 1, got {n}\n"
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["coverage", "--dist", "laplace", "--lambda", "1,2", "--w", "1,0.5", "--grid", "1.5:3:2",
     "--method", "mc", "--n", "0"],
    ["postselect-coverage", "--dist", "laplace", "--lambda", "0.5", "--theta0", "2.0", "--n", "0"],
], ids=["coverage", "postselect-coverage"])
def test_cli_monte_carlo_commands_share_the_library_draw_rule(tmp_path, capsys, argv):
    # Both commands refuse n = 0 with uniform_blocks' own message, once
    # (not once per lambda and w), and write no file.
    out = tmp_path / "out"
    assert main(argv + ["--out", str(out)]) == 2
    assert capsys.readouterr().err == "error: n must be an integer >= 1, got 0\n"
    assert not out.exists()


def test_figure_emitters_smoke(tmp_path):
    rc = RunConfig(dist="laplace", lam=(5.0,), w=(1.0,), alpha=0.05,
                   fig_grid_n=40, mirror=False, outdir=str(tmp_path))
    for fig in (2, 3, 4, 5):
        paths = cmd_figure(fig, rc)
        assert all(p.exists() for p in paths)
        side = json.loads(paths[1].read_text())
        assert side["figure"] == fig
        assert "config" in side and side["config"]["alpha"] == 0.05
    csv3 = (tmp_path / "figure3.csv").read_text().splitlines()
    assert csv3[0] == "x,r1,r2,r3,regime"
    # the pinned-edge radius is +inf near the origin for this panel
    assert csv3[1].split(",")[2] == "inf"
    csv5 = (tmp_path / "figure5.csv").read_text().splitlines()
    nominal = csv5[1].split(",")[-1]
    assert float(nominal) == pytest.approx(2.0 * math.log(20.0), rel=1e-10)


def test_figure_one_small_and_deterministic(tmp_path):
    rc1 = RunConfig(dist="laplace", lam=(0.5,), w=(0.25, 1.0), alpha=0.05,
                    fig_grid_n=16, mirror=True, outdir=str(tmp_path / "a"))
    rc2 = RunConfig(dist="laplace", lam=(0.5,), w=(0.25, 1.0), alpha=0.05,
                    fig_grid_n=16, mirror=True, outdir=str(tmp_path / "b"))
    p1 = cmd_figure(1, rc1)
    p2 = cmd_figure(1, rc2)
    assert p1[0].read_bytes() == p2[0].read_bytes()
    header = p1[0].read_text().splitlines()[0].split(",")
    assert header[:4] == ["dist", "lambda", "w", "theta0"]
    side = json.loads(p1[1].read_text())
    assert side["notes"]["w_sweep"] == side["config"]["w"] == [0.25, 1.0]


@pytest.mark.parametrize("given", [["--w", "1"], ["--config", "w=1"], []], ids=["flag", "config", "none"])
def test_cli_figure_one_sweeps_w_only_when_none_is_given(tmp_path, given):
    # An explicit w = 1 once read as "not given" and drew the whole sweep.
    if given[:1] == ["--config"]:
        (tmp_path / "run.cfg").write_text(given[1] + "\n")
        given = ["--config", str(tmp_path / "run.cfg")]
    argv = ["figure", "1", "--dist", "laplace", "--lambda", "5", "--fig-grid-n", "4", "--no-mirror"]
    assert main(argv + given + ["--outdir", str(tmp_path / "first")]) == 0
    csv = (tmp_path / "first" / "figure1.csv").read_text().splitlines()
    ws = sorted({float(row.split(",")[2]) for row in csv[1:]})
    assert ws == ([1.0] if given else [0.125, 0.25, 0.5, 1.0])
    # The sidecar records the w drawn, so it reproduces the CSV.
    side = json.loads((tmp_path / "first" / "figure1.json").read_text())
    assert side["config"]["w"] == side["notes"]["w_sweep"] == ws
    rebuilt = dataclasses.replace(RunConfig.from_dict(side["config"]), outdir=str(tmp_path / "second"))
    assert cmd_figure(1, rebuilt)[0].read_text().splitlines() == csv


def test_cli_coverage_partial_failure(tmp_path, capsys):
    out = tmp_path / "partial.csv"
    code = main([
        "coverage", "--dist", "laplace", "--lambda", "0.5,-1", "--w", "1",
        "--alpha", "0.05", "--grid", "1:2:2", "--out", str(out),
    ])
    assert code == 1
    err = capsys.readouterr().err
    assert "lambda=-1" in err
    lines = out.read_text().splitlines()
    assert len(lines) == 3  # header + the two points of the healthy config
    assert lines[1].startswith("0.5,1,")
    # The failing configs leave the healthy configs' rows as their own run
    # writes them, each w of lambda 0.5 still batched with the other.
    both, healthy = tmp_path / "both.csv", tmp_path / "healthy.csv"
    args = ["coverage", "--dist", "laplace", "--w", "0.25,1", "--alpha", "0.05", "--grid", "1:4:4"]
    assert main(args + ["--lambda=-1,0.5", "--out", str(both)]) == 1
    assert capsys.readouterr().err.count("coverage failed at lambda=-1.0 w=") == 2
    assert main(args + ["--lambda", "0.5", "--out", str(healthy)]) == 0
    assert both.read_bytes() == healthy.read_bytes()


def test_cli_coverage_computes_each_listed_curve_once(tmp_path, monkeypatch):
    # A (lambda, w) listed twice is scanned once and written at both places;
    # 0 and -0 are different values and get a curve each.  Exact curves run
    # as one batch per lambda (_coverage_curves), each distinct w once in it.
    calls = []
    real = cli_mod._coverage_curves
    monkeypatch.setattr(cli_mod, "_coverage_curves", lambda cfgs, *a, **k: calls.extend(c.lam for c in cfgs) or real(cfgs, *a, **k))
    args = ["coverage", "--dist", "laplace", "--w", "0.5", "--grid", "1:3:3"]
    dup, distinct = tmp_path / "dup.csv", tmp_path / "distinct.csv"
    assert main(args + ["--lambda", "1,1,-0,0,1", "--out", str(dup)]) == 0
    assert [(lam, math.copysign(1.0, lam)) for lam in calls] == [(1.0, 1.0), (0.0, -1.0), (0.0, 1.0)]
    assert main(args + ["--lambda", "1,-0,0", "--out", str(distinct)]) == 0
    lines = distinct.read_bytes().splitlines(keepends=True)
    header, one, rest = lines[0], lines[1:4], lines[4:]
    assert [row.split(b",")[0] for row in rest] == [b"-0"] * 3 + [b"0"] * 3
    assert dup.read_bytes() == b"".join([header, *one, *one, *rest, *one])


def test_cli_coverage_batch_rows_match_single_config_runs(tmp_path, monkeypatch):
    # Each lambda's w run as one batch; every config's rows equal its own
    # single-config run to 1e-10, and byte for byte where the batch holds
    # that config alone (--w 1).
    batches = []
    real = cli_mod._coverage_curves
    monkeypatch.setattr(cli_mod, "_coverage_curves", lambda cfgs, *a, **k: batches.append(len(cfgs)) or real(cfgs, *a, **k))
    args = ["coverage", "--dist", "laplace", "--alpha", "0.05", "--grid", "-3:9:13"]

    def run(lams, ws):
        out = tmp_path / f"cov-{lams}-{ws}.csv"
        assert main(args + ["--lambda", lams, "--w", ws, "--out", str(out)]) == 0
        return out.read_text().splitlines()[1:]

    def numbers(rows):
        return np.array([[float(v) for v in row.split(",")[-11:-3]] for row in rows])

    batched = run("0.5,5", "0.25,1")
    assert batches == [2, 2]
    for k, (lam, w) in enumerate([("0.5", "0.25"), ("0.5", "1"), ("5", "0.25"), ("5", "1")]):
        alone = numbers(run(lam, w))
        assert np.allclose(numbers(batched[13 * k : 13 * (k + 1)]), alone, rtol=0.0, atol=1e-10)
    assert run("0.5,5", "1") == [f"{lam},1," + row for lam in ("0.5", "5") for row in run(lam, "1")]


def test_cli_figure_one_computes_each_listed_curve_once(tmp_path, monkeypatch):
    # --w 0.5,0.5 is scanned once and its rows written twice.
    import hpdcover.figures as figures_mod

    calls = []
    real = figures_mod._coverage_curves
    monkeypatch.setattr(figures_mod, "_coverage_curves", lambda cfgs, *a, **k: calls.append([c.w for c in cfgs]) or real(cfgs, *a, **k))
    argv = ["figure", "1", "--dist", "laplace", "--lambda", "0.5", "--fig-grid-n", "2", "--no-mirror"]
    main(argv + ["--w", "0.5,0.5", "--outdir", str(tmp_path / "dup")])
    main(argv + ["--w", "0.5", "--outdir", str(tmp_path / "one")])
    assert calls == [[0.5], [0.5]]
    header, *rows = (tmp_path / "one" / "figure1.csv").read_text().splitlines(keepends=True)
    assert (tmp_path / "dup" / "figure1.csv").read_text() == "".join([header, *rows, *rows])


def test_figure_one_makes_one_scan_and_one_atom_solve_per_law_and_lambda(tmp_path, monkeypatch):
    # A deterministic work count, not a timing: the benchmark's figure 1
    # batches every w of one law and lambda, so 3 laws x 2 lambdas make six
    # atom_threshold solves and six member_intervals scans (per config,
    # 18 and 24).
    import hpdcover.posterior as posterior_mod
    import hpdcover.scanning as scanning_mod

    counts = dict.fromkeys(("atom_threshold", "member_intervals"), 0)
    modules = [m for k, m in sys.modules.items() if k.startswith("hpdcover") and m is not None]
    for name, owner in (("atom_threshold", posterior_mod), ("member_intervals", scanning_mod)):
        original = getattr(owner, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            counts[_name] += 1
            return _original(*args, **kwargs)

        for mod in modules:
            for key, value in list(vars(mod).items()):
                if value is original:
                    monkeypatch.setattr(mod, key, counted)
    main(["figure", "1", "--dist", "gaussian,laplace,t3", "--lambda", "0.5,5", "--fig-grid-n", "4",
          "--outdir", str(tmp_path)])
    assert counts == {"atom_threshold": 6, "member_intervals": 6}


def test_thread_count_env_cap(monkeypatch):
    from hpdcover.coverage import thread_count

    monkeypatch.setenv("HPD_THREADS", "1")
    assert thread_count() == 1
    assert thread_count(8) == 1
    monkeypatch.delenv("HPD_THREADS")
    assert thread_count(1) == 1


def test_thread_count_names_a_cap_it_cannot_read(monkeypatch, tmp_path, capsys):
    # HPD_THREADS=abc once failed with "invalid literal for int() with base 10: 'abc'",
    # and 0 and -3 were read as 1 without a word.  A Monte Carlo coverage run
    # reads the cap once, before its (lambda, w) loop, and refuses it once.
    from hpdcover.coverage import thread_count

    out = tmp_path / "mc.csv"
    argv = ["coverage", "--dist", "laplace", "--lambda", "1,2", "--w", "1,0.5", "--grid", "1.5:2:2",
            "--method", "mc", "--n", "2000", "--out", str(out)]
    for cap in ("abc", "0", "-3"):
        monkeypatch.setenv("HPD_THREADS", cap)
        with pytest.raises(ValueError, match=f"^HPD_THREADS must be an integer >= 1, got '{cap}'$"):
            thread_count()
        assert main(argv) == 2
        assert capsys.readouterr().err == f"error: HPD_THREADS must be an integer >= 1, got '{cap}'\n"
        assert not out.exists()


@pytest.mark.parametrize("command", [["hpd", "--x", "6.2"], ["coverage", "--grid", "5.5:9:2"],
                                     ["bounds", "--grid", "5.5:9:2"], ["postselect", "--x", "6.2"],
                                     ["postselect-coverage", "--theta0", "6.2"],
                                     ["figure", "3"], ["figure", "4"], ["figure", "5"]])
def test_cli_single_law_commands_refuse_a_dist_list(tmp_path, capsys, command):
    # These read the first law of a list and dropped the rest without a word:
    # hpd --dist laplace,bogus and figure 3 --dist t3,bogus both exited 0.
    out = ["--outdir", str(tmp_path / "fig")] if command[0] == "figure" else ["--out", str(tmp_path / "out")]
    assert main([*command, "--dist", "laplace,bogus", *out]) == 2
    assert capsys.readouterr().err == (
        "error: --dist takes one law (a comma list is for figure 1 only), got 'laplace,bogus'\n")
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("command", [["hpd", "--x", "6.2"], ["bounds", "--grid", "5.5:9:2"],
                                     ["postselect", "--x", "6.2"], ["postselect-coverage", "--theta0", "6.2"]])
@pytest.mark.parametrize("flag, values, shown", [("--lambda", "1,2", "1.0,2.0"), ("--w", "1,0.5", "1.0,0.5")])
def test_cli_single_point_commands_refuse_a_lambda_or_w_list(tmp_path, capsys, command, flag, values, shown):
    # These took the first value of a list: hpd --dist laplace --lambda 1,2
    # --w 1 --x 3 printed the lambda = 1 set and exited 0.
    given = {"--lambda": "5", "--w": "1", flag: values}
    argv = [*command, "--dist", "laplace", *(v for kv in given.items() for v in kv), "--out", str(tmp_path / "out")]
    assert main(argv) == 2
    assert capsys.readouterr().err == (
        f"error: {flag} takes one value (a comma list is for coverage and figure 1 only), got {shown}\n")
    assert list(tmp_path.iterdir()) == []


def test_cli_coverage_parses_its_law_once(tmp_path, monkeypatch):
    # The law was parsed anew for each (lambda, w) pair, a subexp law
    # rerunning its c* calibration each time.
    specs = []
    real = cli_mod.parse_dist_spec
    monkeypatch.setattr(cli_mod, "parse_dist_spec", lambda spec: specs.append(spec) or real(spec))
    argv = ["coverage", "--dist", "laplace", "--lambda", "1,2", "--w", "0.5,1", "--grid", "2.5:3:2",
            "--out", str(tmp_path / "c.csv")]
    assert main(argv) == 0
    assert specs == ["laplace"]


@pytest.mark.parametrize("flag, value, message", [
    ("--grid", "0:1:2.5", "--grid takes a:b:n with finite a <= b and an integer n >= 1, got '0:1:2.5'"),
    ("--grid", "0:1", "--grid takes a:b:n with finite a <= b and an integer n >= 1, got '0:1'"),
    ("--grid", "2:1:3", "--grid takes a:b:n with finite a <= b and an integer n >= 1, got '2:1:3'"),
    ("--lambda", "1,x", "config key 'lam' takes a comma list of numbers, got '1,x'"),
    ("--w", "y", "config key 'w' takes a comma list of numbers, got 'y'"),
    ("--dist", "subexp:x", "--dist 'subexp:x': could not convert string to float: 'x'"),
    ("--dist", "bogus", "--dist 'bogus': unknown distribution 'bogus'"),
])
def test_cli_malformed_value_names_its_input(tmp_path, capsys, flag, value, message):
    # --grid 0:1:2.5 said only "invalid literal for int() with base 10: '2.5'",
    # --lambda 1,x and --dist subexp:x only "could not convert string to float: 'x'".
    given = {"--dist": "laplace", "--lambda": "1", "--grid": "1.5:2:2", flag: value}
    argv = ["coverage", *(part for item in given.items() for part in item), "--out", str(tmp_path / "c.csv")]
    assert main(argv) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not (tmp_path / "c.csv").exists()


@pytest.mark.parametrize("line, message", [
    ("alpha=x", "config key 'alpha' takes a number, got 'x'"),
    ("n=2.5", "config key 'n' takes an integer, got '2.5'"),
    ("lam=0.5,,z", "config key 'lam' takes a comma list of numbers, got '0.5,,z'"),
])
def test_config_value_that_does_not_read_names_its_key(line, message):
    with pytest.raises(ValueError) as exc:
        _read_config(line + "\n")
    assert str(exc.value) == message


def test_figure_csv_reproducible_from_sidecar(tmp_path):
    rc = RunConfig(dist="laplace", alpha=0.02, outdir=str(tmp_path / "first"))
    first_csv, first_json = cmd_figure(3, rc)
    sidecar = json.loads(first_json.read_text())
    rebuilt = RunConfig.from_dict(sidecar["config"])
    rebuilt = dataclasses.replace(rebuilt, outdir=str(tmp_path / "second"))
    second_csv, _ = cmd_figure(sidecar["figure"], rebuilt)
    assert first_csv.read_bytes() == second_csv.read_bytes()


def test_import_leaves_scipy_optimize_unloaded():
    # Importing scipy.optimize costs about 0.32 s per process, more than the
    # set-up budget allows, so every solver stays in numpy.
    src = str(Path(hpdcover.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    code = "import sys, hpdcover, hpdcover.cli; print(sorted(m for m in sys.modules if m.startswith('scipy.optimize')))"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"


def test_main_calls_share_one_parser(monkeypatch, tmp_path):
    seen = []
    parse_args = argparse.ArgumentParser.parse_args

    def spy(self, *args, **kwargs):
        seen.append(self)
        return parse_args(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "parse_args", spy)
    for x in ("1", "7"):
        assert main(["hpd", "--dist", "laplace", "--x", x, "--out", str(tmp_path / f"{x}.json")]) == 0
    assert len(seen) == 2 and seen[0] is seen[1]


def _fmt(value) -> str:
    """One cell as the row-by-row writer printed it: 12 significant digits for floats."""
    if isinstance(value, str):
        return value
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return "%.12g" % float(value)


def _per_cell_csv(header, blocks):
    """The row-by-row writer that ``_csv_text`` replaced: one ``_fmt`` call per cell."""
    lines = [",".join(header)]
    for block in blocks:
        n = max((len(v) for v in block if np.ndim(v)), default=1)
        rows = ([v[i] if np.ndim(v) else v for v in block] for i in range(n))
        lines.extend(",".join(_fmt(v) for v in row) for row in rows)
    return "\n".join(lines) + "\n"


_SPECIAL_FLOATS = [-0.0, 0.0, math.nan, math.inf, -math.inf, 5e-324, -2.5e-310, 1e300, -1e300,
                   1e-300, -1e-300, 0.1, 1 / 3, 123456789012.5]
_FLOATS = st.one_of(st.sampled_from(_SPECIAL_FLOATS), st.floats())
_INT64 = st.integers(-(2**63), 2**63 - 1)
_TEXT = st.text(max_size=8)


@st.composite
def _column(draw, n):
    kind = draw(st.sampled_from(["float", "int", "str"]))
    if draw(st.booleans()):  # a per-block constant
        if kind == "float":
            return draw(st.sampled_from([float, np.float64]))(draw(_FLOATS))
        if kind == "int":
            return draw(st.one_of(st.integers(), _INT64.map(np.int64), st.integers(0, 255).map(np.uint8)))
        return draw(_TEXT)
    if kind == "float":
        return np.array(draw(st.lists(_FLOATS, min_size=n, max_size=n)), float)
    if kind == "int":
        dtype = draw(st.sampled_from([np.int64, np.int8]))
        lo, hi = np.iinfo(dtype).min, np.iinfo(dtype).max
        return np.array(draw(st.lists(st.integers(lo, hi), min_size=n, max_size=n)), dtype)
    return np.array(draw(st.lists(_TEXT, min_size=n, max_size=n)), str)


@st.composite
def _tables(draw):
    width = draw(st.integers(1, 6))
    blocks = []
    for _ in range(draw(st.integers(0, 3))):
        n = draw(st.integers(0, 5))
        blocks.append([draw(_column(n)) for _ in range(width)])
    return [f"c{k}" for k in range(width)], blocks


@settings(max_examples=300, deadline=None)
@given(_tables())
def test_csv_writer_matches_per_cell_join(table):
    assert _csv_text(*table) == _per_cell_csv(*table)


def test_csv_writer_matches_per_cell_join_on_every_emitter():
    laplace, t3 = parse_dist_spec("laplace"), parse_dist_spec("t3")
    tables = [
        coverage_panels_rows([laplace, t3], [0.5, 5.0], [0.25, 1.0], 0.05, 4, True),
        posterior_illustration_rows(parse_dist_spec("gaussian"), 0.05)[:2],
        radius_functions_rows(t3, 0.01),
        endpoint_curves_rows(laplace, 0.05),
        length_curves_rows(laplace, 0.05),
    ]
    texts = [_csv_text(header, blocks) for header, blocks in tables]
    assert texts == [_per_cell_csv(header, blocks) for header, blocks in tables]
    assert "inf" in texts[2] and ",III\n" in texts[2]  # inf radii and regime names are cells too
