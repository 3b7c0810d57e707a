from __future__ import annotations

import json
import math
import os

import pytest

from henon4.cli import (
    ConfigError,
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
    with pytest.raises(ConfigError):
        parse_epsilons("1e-2,1e-2")


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


def test_emit_empty_report_header_only(tmp_path):
    from henon4.cli import TableReport, emit

    report = TableReport(meta={"suite": "empty"}, header=("a", "b"), rows=())
    path = tmp_path / "empty.csv"
    emit(report, "csv", path)
    assert path.read_text() == "a,b\n"
    jpath = tmp_path / "empty.json"
    emit(report, "json", jpath)
    assert json.loads(jpath.read_text()) == {"suite": "empty", "rows": []}


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
    (["talenti-check"], {"seed": 7.9}),
    (["talenti-check"], {"count": 2.5}),
    (["talenti-check"], {"count": True}),
    (["talenti-check"], {"seed": True}),
    (["threshold-scan"], {"max_subdiv": True}),
    (["moser-blowup", "--epsilons", "inf:1e-3:decade"], None),
    (["moser-blowup"], {"m": True}),
    (["symmetry-sweep"], {"m": True}),
    (["moser-blowup"], {"m": 2.0}),
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
