from __future__ import annotations

import json
import math
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from henon4 import cli, profiles, quadrature
from henon4.cli import (
    _COMMANDS,
    _FLAGS,
    ConfigError,
    RunConfig,
    build_config,
    main,
    parse_alphas,
    parse_epsilons,
    resolve_sigma,
)

SIGMA0 = 32.0 * math.pi**2


def test_resolve_sigma_tokens():
    assert resolve_sigma("32pi2", 0.0) == pytest.approx(SIGMA0, rel=1e-15, abs=0.0)
    assert resolve_sigma("16pi2", 0.0) == pytest.approx(16.0 * math.pi**2, rel=1e-15, abs=0.0)
    assert resolve_sigma("sigma_alpha", 4.0) == pytest.approx(2.0 * SIGMA0, rel=1e-15, abs=0.0)
    assert resolve_sigma("0.8*sigma_alpha", 0.0) == pytest.approx(0.8 * SIGMA0, rel=1e-15, abs=0.0)
    assert resolve_sigma("100.5", 3.0) == pytest.approx(100.5, rel=1e-15, abs=0.0)
    with pytest.raises(ConfigError):
        resolve_sigma("pi2", 0.0)
    with pytest.raises(ConfigError):
        resolve_sigma("two*sigma_alpha", 0.0)
    with pytest.raises(ConfigError):
        resolve_sigma("32tau", 0.0)


def test_parse_epsilons_ladders():
    eps = parse_epsilons("1e-2:1e-5:decade")
    assert eps == pytest.approx([1e-2, 1e-3, 1e-4, 1e-5])
    eps2 = parse_epsilons("1e-46:1e-52:2decade")
    assert eps2 == pytest.approx([1e-46, 1e-48, 1e-50, 1e-52], abs=0.0)
    lst = parse_epsilons("1e-2,1e-3,1e-6")
    assert lst == [1e-2, 1e-3, 1e-6]
    with pytest.raises(ConfigError):
        parse_epsilons("1e-5:1e-2:decade")  # increasing
    with pytest.raises(ConfigError):
        parse_epsilons("1e-2:1e-5:linear")


def test_parse_alphas():
    assert parse_alphas("16,32,64") == [16.0, 32.0, 64.0]
    with pytest.raises(ConfigError):
        parse_alphas("64,32")
    with pytest.raises(ConfigError):
        parse_alphas("")


def test_build_config_from_file_with_flag_override(tmp_path):
    cfg_file = tmp_path / "cfg.json"
    cfg_file.write_text(json.dumps({"alpha": 4.0, "beta": 0.8, "seed": 3}))
    cfg = build_config(
        ["moser-blowup", "--config", str(cfg_file), "--beta", "1.2",
         "--epsilons", "1e-2:1e-4:decade", "--out-dir", str(tmp_path)]
    )
    assert cfg.params["alpha"] == 4.0
    assert cfg.params["beta"] == 1.2  # flag wins
    assert cfg.command == "moser-blowup"


def test_unknown_config_keys_rejected(tmp_path):
    cfg_file = tmp_path / "cfg.json"
    cfg_file.write_text(json.dumps({"alpha": 1.0, "frobnicate": True}))
    with pytest.raises(ConfigError):
        build_config(["moser-blowup", "--config", str(cfg_file)])


def test_env_out_dir(tmp_path, monkeypatch):
    monkeypatch.setenv("HENON4_OUT_DIR", str(tmp_path / "from_env"))
    cfg = build_config(["threshold-scan"])
    assert str(cfg.out_dir) == str(tmp_path / "from_env")


def test_validation_exit_2_and_no_partial_files(tmp_path):
    out = tmp_path / "never"
    code = main(
        ["symmetry-sweep", "--alphas", "16,32,64", "--out-dir", str(out)]
    )  # too few grid points
    assert code == 2
    assert not out.exists()
    code = main(["moser-blowup", "--beta", "-1", "--out-dir", str(out)])
    assert code == 2
    assert not out.exists()
    # Dirichlet member undefined at eps = 1e-2
    code = main(
        ["moser-blowup", "--bc", "dirichlet", "--epsilons", "1e-2:1e-4:decade",
         "--out-dir", str(out)]
    )
    assert code == 2
    assert not out.exists()


def test_moser_blowup_writes_monotone_csv(tmp_path, capsys):
    out = tmp_path / "run"
    code = main(
        ["moser-blowup", "--alpha", "0", "--beta", "1.2",
         "--epsilons", "1e-2:1e-10:decade", "--out-dir", str(out)]
    )
    assert code == 0
    text = (out / "moser_blowup.csv").read_text()
    lines = text.strip().split("\n")
    assert lines[0] == "epsilon,norm_sq,value,log_value,lower_bound_exponent"
    assert all(len(line.split(",")) == 5 for line in lines[1:])
    values = [float(line.split(",")[2]) for line in lines[1:]]
    assert all(b > a for a, b in zip(values[1:], values[2:]))
    meta = json.loads((out / "moser_blowup.json").read_text())
    assert meta["verdict"] == "Diverging"


def test_moser_blowup_exit_3_on_contradicted_verdict(tmp_path):
    # beta slightly above 1 on a shallow ladder: growth below the divergence
    # gate and spread above the flatness gate -> Inconclusive -> exit 3
    out = tmp_path / "run"
    code = main(
        ["moser-blowup", "--alpha", "0", "--beta", "1.05",
         "--epsilons", "1e-2:1e-4:decade", "--out-dir", str(out)]
    )
    assert code == 3


def test_moser_blowup_names_an_underflowed_value(tmp_path, capsys):
    # at m = 300 F_m of the eps = 1e-2 member underflows to 0.0; its
    # log_value is the failure to name, not an internal math domain error
    out = tmp_path / "run"
    code = main(["moser-blowup", "--m", "300", "--alpha", "0", "--beta", "1.2",
                 "--out-dir", str(out)])
    assert code == 3
    err = capsys.readouterr().err
    assert "internal error" not in err
    assert "value = 0.0 at epsilon=0.01" in err


def test_moser_blowup_names_a_subnormal_value(tmp_path, capsys):
    # at m = 150 F_m of the eps = 1e-2 member is 3.9e-315, a subnormal with
    # fewer than 53 bits that cannot meet rel_tol: no report carries it
    out = tmp_path / "run"
    code = main(["moser-blowup", "--alpha", "0", "--beta", "0.1", "--m", "150",
                 "--epsilons", "1e-2,1e-3,1e-4", "--out-dir", str(out)])
    assert code == 3
    assert re.search(r"value = \S+ at epsilon=0\.01", capsys.readouterr().err)
    assert not out.exists()


def test_moser_blowup_exit_3_on_an_inconclusive_sub_threshold_scan(tmp_path, capsys):
    # at m = 140 the values rise from 1.8e-290 to 1.8e-253, all normal: below
    # the threshold a rising tail is neither flat nor decreasing
    out = tmp_path / "run"
    code = main(["moser-blowup", "--alpha", "0", "--beta", "0.1", "--m", "140",
                 "--epsilons", "1e-2,1e-3,1e-4", "--out-dir", str(out)])
    assert code == 3
    assert "expected Bounded at beta=0.1, got Inconclusive" in capsys.readouterr().out


def test_moser_blowup_decaying_sub_threshold_scan_is_bounded(tmp_path):
    # beta < 1 and the value falls over every decade (3.5e-5 -> 5.3e-9): the
    # spread is far above 10 %, but a tail that never rises is bounded
    out = tmp_path / "run"
    code = main(
        ["moser-blowup", "--m", "6", "--alpha", "16", "--beta", "0.8",
         "--out-dir", str(out)]
    )
    assert code == 0
    meta = json.loads((out / "moser_blowup.json").read_text())
    assert meta["verdict"] == "Bounded"
    values = [row["value"] for row in meta["rows"]]
    assert all(b < a for a, b in zip(values, values[1:]))


def test_threshold_scan_columns(tmp_path):
    out = tmp_path / "scan"
    code = main(["threshold-scan", "--alphas", "0,4", "--out-dir", str(out)])
    assert code == 0
    lines = (out / "threshold_scan.csv").read_text().strip().split("\n")
    assert lines[0] == "alpha,sigma_alpha,series_bound,max_corpus_value"
    assert len(lines) == 3


def test_symmetry_sweep_names_a_subnormal_bump_value(tmp_path, capsys):
    # the bump value 1.2e-321 at alpha = 1e80 is subnormal (alpha**4 would
    # overflow, an internal error), so the sweep names it and exits 3
    out = tmp_path / "run"
    code = main(["symmetry-sweep", "--sigma", "32pi2", "--m", "1",
                 "--alphas", "1e80,1e81,1e82,1e83", "--out-dir", str(out)])
    assert code == 3
    err = capsys.readouterr().err
    assert err.startswith("numerical failure: bump_exact = 1.206e-321 at alpha=1e+80")
    assert not out.exists()


def test_symmetry_sweep_json_schema_and_determinism(tmp_path):
    args = ["symmetry-sweep", "--sigma", "32pi2", "--m", "1",
            "--alphas", "16,32,64,128", "--seed", "7"]
    out1 = tmp_path / "a"
    out2 = tmp_path / "b"
    assert main(args + ["--out-dir", str(out1)]) == 0
    assert main(args + ["--out-dir", str(out2)]) == 0
    j1 = (out1 / "sweep_report.json").read_bytes()
    j2 = (out2 / "sweep_report.json").read_bytes()
    c1 = (out1 / "sweep_report.csv").read_bytes()
    c2 = (out2 / "sweep_report.csv").read_bytes()
    assert j1 == j2
    assert c1 == c2
    doc = json.loads(j1)
    assert set(doc) == {"sigma", "m", "rows", "fitted_slopes", "alpha_star"}
    assert set(doc["fitted_slopes"]) == {"bump", "radial"}
    assert doc["alpha_star"] == "not-found-on-grid" or isinstance(
        doc["alpha_star"], float
    )
    assert [r["alpha"] for r in doc["rows"]] == [16.0, 32.0, 64.0, 128.0]
    assert set(doc["rows"][0]) == {
        "alpha",
        "bump_exact",
        "bump_paper_bound",
        "radial_max",
        "radial_profile_id",
    }
    header = c1.decode().split("\n")[0]
    assert header == "alpha,bump_exact,bump_paper_bound,radial_max,radial_profile_id"


def test_symmetry_sweep_runs_the_m0_control(tmp_path):
    # at m = 0 the radial value decays like alpha^-3 and the bump like
    # alpha^-4, so the sweep runs and finds no crossover
    out = tmp_path / "m0"
    args = ["symmetry-sweep", "--sigma", "32pi2", "--m", "0", "--alphas", "16,32,64,128,256,512"]
    assert main(args + ["--out-dir", str(out)]) == 0
    doc = json.loads((out / "sweep_report.json").read_text())
    assert doc["m"] == 0
    assert doc["alpha_star"] == "not-found-on-grid"


def test_symmetry_sweep_runs_the_cos2_bump(tmp_path):
    # the non-default bump from the command line to the report: its larger
    # alpha^-4 constant moves the m = 2 crossover from 256 down to 128
    out = tmp_path / "cos2"
    args = ["symmetry-sweep", "--sigma", "32pi2", "--m", "2", "--bump", "cos2"]
    assert main(args + ["--out-dir", str(out)]) == 0
    doc = json.loads((out / "sweep_report.json").read_text())
    assert [r["alpha"] for r in doc["rows"]] == [16.0, 32.0, 64.0, 128.0, 256.0, 512.0]
    assert doc["alpha_star"] == 128.0


_SCAN_MESSAGES = [
    (["--beta", "1e308"], None),  # beta * sigma_alpha overflows
    (["--alpha", "1e308"], None),
    (["--alpha", "inf"], "alpha must be finite and >= 0"),
    (["--alpha", "-1"], "alpha must be finite and >= 0"),
    (["--beta", "-1"], "beta must be finite and > 0"),
    (["--beta", "inf"], "beta must be finite and > 0"),
    (["--beta", "nan"], "beta must be finite and > 0"),
]


@pytest.mark.parametrize("flags, message", _SCAN_MESSAGES, ids=[" ".join(f) for f, _ in _SCAN_MESSAGES])
def test_moser_blowup_names_the_key_it_refuses(tmp_path, capsys, flags, message):
    # an overflowing beta * sigma_alpha names beta and sigma_alpha, never
    # sigma, a key that moser-blowup does not read
    out = tmp_path / "never"
    assert main(["moser-blowup", *flags, "--out-dir", str(out)]) == 2
    err = capsys.readouterr().err
    if message is None:
        assert "beta" in err and "sigma_alpha" in err
        assert "sigma must be finite" not in err
    else:
        assert err == f"configuration error: {message}\n"
    assert not out.exists()


def test_symmetry_sweep_ignores_the_seed(tmp_path):
    # --seed is checked but the search uses no randomness
    args = ["symmetry-sweep", "--sigma", "32pi2", "--m", "1", "--alphas", "16,32,64,128"]
    out0 = tmp_path / "seed0"
    out7 = tmp_path / "seed7"
    assert main(args + ["--seed", "0", "--out-dir", str(out0)]) == 0
    assert main(args + ["--seed", "7", "--out-dir", str(out7)]) == 0
    for name in ("sweep_report.csv", "sweep_report.json"):
        assert (out0 / name).read_bytes() == (out7 / name).read_bytes()


def test_csv_cells_are_17_digit_roundtrip(tmp_path):
    out = tmp_path / "rt"
    assert main(["threshold-scan", "--alphas", "0,4", "--out-dir", str(out)]) == 0
    lines = (out / "threshold_scan.csv").read_text().strip().split("\n")
    for line in lines[1:]:
        for cell in line.split(","):
            val = float(cell)  # must round-trip exactly through 17g
            assert f"{val:.17g}" == cell


def test_unknown_flag_exits_2():
    with pytest.raises(SystemExit) as exc:
        build_config(["threshold-scan", "--bogus", "1"])
    assert exc.value.code == 2


@pytest.mark.parametrize("flags", [["--bogus", "1"], ["--format", "xml"], ["--m", "2.5"]], ids=" ".join)
def test_main_returns_2_on_a_flag_error(tmp_path, capsys, flags):
    # argparse's own exit is main's return value, as for every other bad input
    out = tmp_path / "never"
    assert main(["threshold-scan", *flags, "--out-dir", str(out)]) == 2
    assert "henon4: error:" in capsys.readouterr().err
    assert not out.exists()


def test_main_returns_0_after_help(capsys):
    assert main(["--help"]) == 0
    assert capsys.readouterr().out.startswith("usage: henon4")


def test_run_config_checks_its_command_and_format():
    # a config built in-process meets the rules of the command line: an
    # unknown format can no longer run a whole scan that writes nothing
    with pytest.raises(ConfigError, match="unknown format 'xml'"):
        RunConfig("threshold-scan", fmt="xml")
    with pytest.raises(ConfigError, match="unknown command 'bogus'"):
        RunConfig("bogus")


def test_run_config_holds_the_run_setting_defaults(tmp_path, monkeypatch):
    # build_config passes the format and the output directory only when a
    # flag or the config file gives them, and the sweep's bump only when
    # --bump does, so each default is stated once
    from henon4.symmetry import BumpSpec

    bumps = []

    def crossover_detect(params, alphas, bump, spec):
        bumps.append(bump)
        raise RuntimeError("stop")

    monkeypatch.setattr(cli, "crossover_detect", crossover_detect)
    assert main(["symmetry-sweep", "--out-dir", str(tmp_path / "never")]) == 3
    assert bumps == [BumpSpec()]
    monkeypatch.setenv("HENON4_OUT_DIR", str(tmp_path / "from_env"))
    assert RunConfig("threshold-scan").out_dir == tmp_path / "from_env"
    assert build_config(["threshold-scan"]) == RunConfig("threshold-scan")
    assert build_config(["threshold-scan", "--out-dir", ""]) == RunConfig("threshold-scan")
    monkeypatch.setenv("HENON4_OUT_DIR", "")
    assert RunConfig("threshold-scan").out_dir == Path("out")
    monkeypatch.delenv("HENON4_OUT_DIR")
    assert RunConfig("threshold-scan").out_dir == Path("out")


def test_emit_refuses_an_unknown_format_and_writes_nothing(tmp_path):
    from henon4.cli import TableReport, emit

    report = TableReport(meta={}, header=("a",), rows=((1,),))
    with pytest.raises(ConfigError, match="unknown format 'xml'"):
        emit(report, "xml", tmp_path / "never" / "report.xml")
    assert list(tmp_path.iterdir()) == []


def test_an_internal_error_exits_3_and_writes_nothing(tmp_path, monkeypatch, capsys):
    def body(spec, params):
        raise RuntimeError("boom")

    monkeypatch.setitem(_COMMANDS, "threshold-scan", ("threshold_scan", body, set()))
    out = tmp_path / "never"
    assert main(["threshold-scan", "--out-dir", str(out)]) == 3
    assert capsys.readouterr().err == "internal error: RuntimeError: boom\n"
    assert not out.exists()


def test_python_m_henon4_cli_exits_with_mains_code(tmp_path):
    src = str(Path(profiles.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    argv = [sys.executable, "-m", "henon4.cli", "threshold-scan", "--alphas", "0,4"]
    out = tmp_path / "run"
    done = subprocess.run([*argv, "--out-dir", str(out)], env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    assert sorted(p.name for p in out.iterdir()) == ["threshold_scan.csv", "threshold_scan.json"]
    never = tmp_path / "never"
    done = subprocess.run([*argv, "--bogus", "1", "--out-dir", str(never)], env=env, capture_output=True, text=True)
    assert done.returncode == 2
    assert "henon4: error: unrecognized arguments: --bogus 1" in done.stderr
    assert not never.exists()


@pytest.mark.parametrize(
    "argv", [["symmetry-sweep", "--sigma", "32pi2", "--m", "2"], ["verify-identities"]], ids=lambda a: a[0]
)
def test_a_closed_stdout_changes_neither_the_code_nor_the_reports(tmp_path, capsys, argv):
    # a reader that stops early (`| head -1`) closes the pipe before the
    # command prints, which it does only after computing and writing
    src = str(Path(profiles.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    piped, direct = tmp_path / "piped", tmp_path / "direct"
    cmd = [sys.executable, "-m", "henon4.cli", *argv, "--out-dir", str(piped)]
    with subprocess.Popen(cmd, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE) as proc:
        proc.stdout.close()
        err = proc.stderr.read()
    assert (proc.returncode, err) == (0, b"")
    assert main([*argv, "--out-dir", str(direct)]) == 0
    names = sorted(p.name for p in direct.iterdir())
    assert sorted(p.name for p in piped.iterdir()) == names and len(names) == 2
    assert all((piped / name).read_bytes() == (direct / name).read_bytes() for name in names)


@pytest.mark.parametrize("command", _COMMANDS)
def test_commands_return_their_lines_and_print_nothing(tmp_path, capsys, command):
    # `run` is the only writer: it prints a command's lines after its reports
    _, body, _ = _COMMANDS[command]
    *_, lines = body(quadrature.QuadratureSpec(), {})
    assert capsys.readouterr() == ("", "")
    assert main([command, "--out-dir", str(tmp_path)]) == 0
    *printed, summary = capsys.readouterr().out.splitlines()
    assert printed == lines and summary.startswith(f"{command}: ")


@pytest.mark.parametrize("under", [False, True], ids=["a file", "under a file"])
def test_an_out_dir_that_cannot_be_a_directory_exits_2_before_computing(tmp_path, monkeypatch, capsys, under):
    # out_dir, or its nearest existing ancestor, must be a directory: the
    # scan is refused before it runs, and the file is left as it was
    existing = tmp_path / "threshold_scan.csv"
    existing.write_text("kept\n")
    out_dir = existing / "reports" if under else existing
    assert main(["threshold-scan", "--alphas", "0,4", "--out-dir", str(out_dir)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"configuration error: out_dir {str(out_dir)!r}: {str(existing)!r} is not a directory\n"
    assert existing.read_text() == "kept\n" and list(tmp_path.iterdir()) == [existing]
    monkeypatch.setenv("HENON4_OUT_DIR", str(out_dir))
    with pytest.raises(ConfigError, match="out_dir"):
        RunConfig("threshold-scan")
    # a dangling link exists as a link, and is no directory either
    (tmp_path / "link").symlink_to(tmp_path / "missing")
    with pytest.raises(ConfigError, match="is not a directory"):
        RunConfig("threshold-scan", out_dir=tmp_path / "link")


def test_console_script_names_the_main_the_tests_call():
    # the installed `henon4` command is pyproject's [project.scripts] entry
    import importlib.metadata
    import tomllib

    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    target = tomllib.loads(pyproject.read_text())["project"]["scripts"]["henon4"]
    assert target == "henon4.cli:main"
    entry = importlib.metadata.EntryPoint(name="henon4", value=target, group="console_scripts")
    assert entry.load() is main


def test_emit_empty_report_header_only(tmp_path):
    from henon4.cli import TableReport, emit

    report = TableReport(meta={"suite": "empty"}, header=("a", "b"), rows=())
    path = tmp_path / "empty.csv"
    emit(report, "csv", path)
    assert path.read_text() == "a,b\n"
    jpath = tmp_path / "empty.json"
    emit(report, "json", jpath)
    assert json.loads(jpath.read_text()) == {"suite": "empty", "rows": []}


# cheap arguments for each command, and the stem of the reports it writes
_CHEAP_RUNS = [
    (["verify-identities"], "verify_identities"),
    (["threshold-scan", "--alphas", "0,4"], "threshold_scan"),
    (["moser-blowup", "--alpha", "0", "--beta", "1.2"], "moser_blowup"),
    (["talenti-check", "--count", "1", "--seed", "0"], "talenti_check"),
    (["symmetry-sweep", "--alphas", "16,32,64,128"], "sweep_report"),
]


@pytest.mark.parametrize("fmt, given", [("csv", "flag"), ("json", "config"), ("both", "default")])
@pytest.mark.parametrize("argv, stem", _CHEAP_RUNS, ids=[argv[0] for argv, _ in _CHEAP_RUNS])
def test_each_command_writes_its_documented_reports(tmp_path, argv, stem, fmt, given):
    out = tmp_path / "run"
    if given == "flag":
        argv = argv + ["--format", fmt, "--out-dir", str(out)]
    elif given == "config":  # out_dir and format are config-file keys too
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text(json.dumps({"out_dir": str(out), "format": fmt}))
        argv = argv + ["--config", str(cfg_file)]
    else:
        argv = argv + ["--out-dir", str(out)]
    assert main(argv) == 0
    suffixes = ("csv", "json") if fmt == "both" else (fmt,)
    assert sorted(p.name for p in out.iterdir()) == [f"{stem}.{x}" for x in suffixes]


@pytest.mark.parametrize("alpha", ["508", "4092", "1e6"])
def test_verify_identities_holds_at_large_alpha(tmp_path, alpha):
    # the log-form energy identity is checked at gamma = alpha + 4
    assert main(["verify-identities", "--alpha", alpha, "--out-dir", str(tmp_path)]) == 0


_REJECTED = [
    (["threshold-scan", "--alphas=-1,0"], None),
    (["threshold-scan", "--sigma", "sigma_alpha"], None),
    (["moser-blowup", "--alpha", "nan"], None),
    (["moser-blowup", "--beta", "nan"], None),
    (["symmetry-sweep", "--sigma", "nan"], None),
    (["symmetry-sweep", "--alphas", "16,32,64,nan"], None),
    (["symmetry-sweep", "--alphas", "16,32,64,inf"], None),
    (["verify-identities", "--alpha", "nan"], None),
    (["verify-identities", "--alpha=-3"], None),
    (["talenti-check", "--seed=-1"], None),
    (["talenti-check", "--alpha", "-1"], None),
    (["talenti-check", "--sigma", "bogus"], None),
    (["verify-identities", "--m", "-1"], None),
    (["symmetry-sweep", "--seed=-1"], None),
    (["verify-identities"], {"alpha": "x"}),
    (["threshold-scan"], {"rel_tol": "tight"}),
    (["moser-blowup"], {"m": 1.5}),
    (["threshold-scan"], {"max_subdiv": 2.7}),
    (["threshold-scan", "--rel-tol", "inf"], None),
    (["threshold-scan", "--rel-tol", "1e-17"], None),
    (["talenti-check"], {"seed": 7.9}),
    (["talenti-check"], {"count": 2.5}),
    (["talenti-check"], {"count": True}),
    (["talenti-check"], {"seed": True}),
    (["threshold-scan"], {"max_subdiv": True}),
    (["moser-blowup", "--epsilons", "inf:1e-3:decade"], None),
    (["moser-blowup"], {"m": True}),
    (["symmetry-sweep"], {"m": True}),
    (["moser-blowup"], {"m": 2.0}),
    (["verify-identities", "--alpha", "1e300"], None),
    (["verify-identities"], {"alpha": True}),
    (["threshold-scan"], {"alpha": False}),
    (["threshold-scan"], {"rel_tol": True}),
    (["moser-blowup"], {"beta": True}),
    (["verify-identities"], {"alpha": "16"}),
    (["threshold-scan"], {"alpha": "16"}),
    (["moser-blowup"], {"beta": "1.2"}),
    (["threshold-scan"], {"rel_tol": "1e-8"}),
    (["moser-blowup", "--epsilons", "1e-2:1e-5"], None),
    (["moser-blowup", "--epsilons", "1e-2:1e-5:0decade"], None),
    (["moser-blowup", "--epsilons", ","], None),
    (["moser-blowup", "--epsilons", "1e-3,1e-2"], None),
    # beta * sigma_alpha overflows while beta and alpha are each valid
    (["moser-blowup", "--beta", "1e308"], None),
    (["moser-blowup", "--alpha", "1e308"], None),
    (["threshold-scan", "--alphas", "16,x"], None),
    (["threshold-scan", "--config", "no-such-config.json"], None),
    (["threshold-scan"], [1, 2]),
    (["threshold-scan"], {"format": "xml"}),
    (["symmetry-sweep", "--sigma", "33pi2"], None),
    (["threshold-scan"], {"alpha": None}),
    (["threshold-scan"], {"rel_tol": [1e-10]}),
    # a sigma token is resolved against --alpha: 0.5 * sigma_16 = 80 pi^2
    (["symmetry-sweep", "--alpha", "16", "--sigma", "0.5*sigma_alpha", "--alphas", "16,32,64,128"], None),
    # the sweep's own alpha rule, where sigma_-1 = 24 pi^2 would pass
    (["symmetry-sweep", "--alpha", "-1", "--sigma", "sigma_alpha", "--alphas", "16,32,64,128"], None),
    # a key that the command does not read, as a flag or in the config file
    (["talenti-check", "--beta", "nan"], None),
    (["threshold-scan", "--m", "3"], None),
    (["moser-blowup", "--sigma", "32pi2"], None),
    (["verify-identities", "--seed=-7"], None),
    (["symmetry-sweep", "--count", "3"], None),
    (["talenti-check"], {"alpha": 4}),
]


@pytest.mark.parametrize(
    "argv, config",
    _REJECTED,
    ids=[" ".join(argv) + (f" {json.dumps(c)}" if c else "") for argv, c in _REJECTED],
)
def test_rejected_inputs_exit_2_and_write_nothing(tmp_path, capsys, argv, config):
    if config is not None:
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text(json.dumps(config))
        argv = argv + ["--config", str(cfg_file)]
    out = tmp_path / "never"
    assert main(argv + ["--out-dir", str(out)]) == 2
    assert "configuration error:" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "argv, config",
    _REJECTED,
    ids=[" ".join(argv) + (f" {json.dumps(c)}" if c else "") for argv, c in _REJECTED],
)
def test_rejected_inputs_run_no_kernel_round(tmp_path, monkeypatch, argv, config):
    # each command checks its inputs before it computes: _round is the only
    # caller of the GK15 kernel, so a refusal that integrated would exit 3
    def no_round(f, split):
        raise AssertionError("a refused input ran a kernel round")

    monkeypatch.setattr(quadrature, "_round", no_round)
    if config is not None:
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text(json.dumps(config))
        argv = argv + ["--config", str(cfg_file)]
    out = tmp_path / "never"
    assert main(argv + ["--out-dir", str(out)]) == 2
    assert not out.exists()


# a value of each key that the library refuses, and a pattern of its message
_BAD_VALUES = {
    "alpha": (-1, "alpha must be finite and >= 0"),
    "sigma": ("bogus", "bad sigma token 'bogus'"),
    "beta": (-1, "beta must be finite and > 0"),
    "m": (1.5, "m must be an integer, got 1.5"),
    "epsilons": (",", "epsilons must be non-empty"),
    "alphas": ("x", "bad alphas list 'x'"),
    "bump": ("bogus", "unknown bump kind 'bogus'"),
    "bc": ("x", r"bc must be one of \['navier', 'dirichlet'\], got 'x'"),
    "seed": (-1, "seed must be >= 0"),
    "count": (0, "count must be >= 1"),
}
_RUN_SETTINGS = {"out_dir", "format", "rel_tol", "max_subdiv"}


@pytest.mark.parametrize("command", _COMMANDS)
@pytest.mark.parametrize("key", sorted(set(_FLAGS) - _RUN_SETTINGS))
def test_each_command_refuses_the_keys_it_does_not_read(tmp_path, capsys, command, key):
    # through the config file every refusal is a ConfigError: a key outside
    # the command's set is refused by name, and a bad value of a key in it
    # by the library's own rule
    value, message = _BAD_VALUES[key]
    cfg_file = tmp_path / "cfg.json"
    cfg_file.write_text(json.dumps({key: value}))
    out = tmp_path / "never"
    assert main([command, "--config", str(cfg_file), "--out-dir", str(out)]) == 2
    err = capsys.readouterr().err
    keys = _COMMANDS[command][2]
    if key in keys:
        assert err.startswith("configuration error: ")
        assert re.search(message, err) and "does not read" not in err
    else:
        assert err == f"configuration error: {command} does not read {[key]}; it reads {sorted(keys)}\n"
    assert not out.exists()


@pytest.mark.parametrize("out_dir", [5, ["a"], False], ids=repr)
def test_config_out_dir_not_a_string_exits_2_and_writes_nothing(tmp_path, monkeypatch, capsys, out_dir):
    # the flag would override the key, so the config file alone names out_dir
    monkeypatch.chdir(tmp_path)
    (tmp_path / "cfg.json").write_text(json.dumps({"out_dir": out_dir}))
    assert main(["threshold-scan", "--config", "cfg.json"]) == 2
    assert "configuration error: out_dir must be a string" in capsys.readouterr().err
    assert [p.name for p in tmp_path.iterdir()] == ["cfg.json"]


_NON_INTEGER = [
    (["threshold-scan"], {"max_subdiv": 2.7}, "max_subdivisions"),
    (["symmetry-sweep"], {"seed": 1.5}, "seed"),
    (["talenti-check"], {"seed": 7.9}, "seed"),
    (["talenti-check"], {"count": 2.5}, "count"),
]


@pytest.mark.parametrize(
    "argv, config, key",
    _NON_INTEGER,
    ids=[f"{argv[0]} {json.dumps(c)}" for argv, c, _ in _NON_INTEGER],
)
def test_non_integer_count_message_names_the_key(tmp_path, capsys, argv, config, key):
    cfg_file = tmp_path / "cfg.json"
    cfg_file.write_text(json.dumps(config))
    out = tmp_path / "never"
    assert main(argv + ["--config", str(cfg_file), "--out-dir", str(out)]) == 2
    err = capsys.readouterr().err
    assert f"{key} must be an integer, got {next(iter(config.values()))}" in err


@pytest.mark.parametrize("margin, failures", [(1.0 + 5e-10, 0), (1.0 + 5e-9, 13)])
def test_verify_identities_log_bound_limit(tmp_path, monkeypatch, capsys, margin, failures):
    # the margin's limit is 1 + 1e-9, tighter than the other ratios' 1 + 1e-8
    monkeypatch.setattr(cli, "pointwise_log_bound_margin", lambda u, energy: margin)
    assert main(["verify-identities", "--out-dir", str(tmp_path)]) == (3 if failures else 0)
    fails = [line for line in capsys.readouterr().out.splitlines() if line.startswith("[FAIL]")]
    assert len(fails) == failures
    assert all(line.startswith("[FAIL] log-bound-margin ") for line in fails)
    rows = json.loads((tmp_path / "verify_identities.json").read_text())["rows"]
    assert [r["check"] for r in rows if not r["ok"]] == ["log-bound-margin"] * failures
    assert sum(r["check"] == "log-bound-margin" for r in rows) == 13


def test_verify_identities_integrates_in_lockstep(tmp_path, monkeypatch):
    # 900 GK15 rounds when each integral ran alone; the lockstep blocks
    # evaluate the same intervals, so the node count stays exact (the
    # log-bound margins reuse the energies and integrate nothing).  53
    # rounds: the energy identity integrates one log form per profile, at
    # gamma = alpha + 4
    rounds = []
    kernel = quadrature._gk15_batch

    def counting_kernel(f, los, his):
        rounds.append(los.size * 15)
        return kernel(f, los, his)

    monkeypatch.setattr(quadrature, "_gk15_batch", counting_kernel)
    assert main(["verify-identities", "--alpha", "16", "--out-dir", str(tmp_path)]) == 0
    assert len(rounds) <= 300
    assert sum(rounds) == 64770


_SWEEP_WORK = [
    # (alphas, GK15 rounds and nodes with every candidate in r, the same in tau)
    (None, 904, 137895, 48, 5970),
    ("2048,8192,32768,131072", 454, 186435, 26, 3015),
]


@pytest.mark.parametrize(
    "alphas, r_calls, r_nodes, calls, nodes",
    [pytest.param(*work, id="-".join(map(str, work[:3]))) for work in _SWEEP_WORK],
)
def test_symmetry_sweep_kernel_work_pinned(tmp_path, monkeypatch, alphas, r_calls, r_nodes, calls, nodes):
    # in tau the radial search scores its candidates on a fixed rule, which
    # makes no GK15 round: the kernel integrates each family's final point,
    # the fallbacks (ring candidates at alpha = 16 and 32) and the bumps.
    # With the tau rule off (no x qualifies) every candidate falls back and
    # is one scalar integral in r.  ROADMAP item 2 (the basis search) is
    # expected to move these counts, and the change that does must state the
    # new ones here
    rounds = []
    kernel = quadrature._gk15_batch

    def counting_kernel(f, los, his):
        rounds.append(los.size * 15)
        return kernel(f, los, his)

    monkeypatch.setattr(quadrature, "_gk15_batch", counting_kernel)
    argv = ["symmetry-sweep", "--m", "1", "--out-dir", str(tmp_path)]
    if alphas is not None:
        argv += ["--alphas", alphas]
    assert main(argv) == 0
    assert (len(rounds), sum(rounds)) == (calls, nodes)
    rounds.clear()
    monkeypatch.setattr(profiles, "_TAU_MAX_SHARE", -1.0)
    assert main(argv) == 0
    assert (len(rounds), sum(rounds)) == (r_calls, r_nodes)


@pytest.mark.parametrize("alphas, calls, points", [(None, 120, 145815), ("2048,8192,32768,131072", 98, 95415)])
def test_symmetry_sweep_series_calls_pinned(tmp_path, monkeypatch, alphas, calls, points):
    # the radial search runs every (alpha, family) ascent in lockstep and
    # scores each round's candidates with one exp_minus_taylor call; scoring
    # each candidate alone would make 708 and 466 calls on the same points
    seen = []
    series = profiles.exp_minus_taylor

    def counting_series(z, m):
        seen.append(np.size(z))
        return series(z, m)

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "henon4" and getattr(module, "exp_minus_taylor", None) is series:
            monkeypatch.setattr(module, "exp_minus_taylor", counting_series)
    argv = ["symmetry-sweep", "--m", "1", "--out-dir", str(tmp_path)]
    if alphas is not None:
        argv += ["--alphas", alphas]
    assert main(argv) == 0
    assert (len(seen), sum(seen)) == (calls, points)


def test_threshold_scan_raises_the_loops_first_failure(tmp_path, capsys):
    # until ROADMAP item 7 mends it, alpha = 320 fails with a 0*inf in
    # moser:1e-6:dirichlet, the last corpus profile: a command that raises
    # prints no row, and the message names the abscissa a loop over the corpus gave
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(["threshold-scan", "--alphas", "16,320", "--out-dir", str(tmp_path)])
    assert code == 3
    assert [str(w.message) for w in caught] == [
        "overflow encountered in exp",
        "invalid value encountered in multiply",
    ]
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "numerical failure: integrand non-finite near x=0.015811388300841896\n"


def test_readme_command_line_names_every_command_and_flag():
    # the README's *Command line* section is the CLI's documentation: a
    # command or flag renamed in cli and not there reads as drift
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("\n## Command line\n", 1)[1].split("\n## ", 1)[0]
    names = list(_COMMANDS) + ["--" + key.replace("_", "-") for key in _FLAGS] + ["--config"]
    missing = [name for name in names if not re.search(rf"(?<![\w-]){re.escape(name)}(?![\w-])", section)]
    assert missing == []


def test_readme_command_bullets_name_each_key_the_command_reads():
    # each command's bullet under *Command line* lists the keys it reads
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("\n## Command line\n", 1)[1].split("\n## ", 1)[0]
    commands = section.split("\nCommands:\n", 1)[1].split("\n\n")[0]  # the list, up to its blank line
    bullets = {b.split("`", 1)[1].split()[0]: b for b in commands.split("\n- ")[1:]}
    missing = [
        (command, key)
        for command, (_, _, keys) in _COMMANDS.items()
        for key in sorted(keys)
        if not re.search(rf"(?<![\w-])--{key.replace('_', '-')}(?![\w-])", bullets[command])
    ]
    assert missing == []
