"""Command-line interface tests (driven through main(), no subprocess)."""

import json

import numpy as np
import pytest

from qlan.cli import main


def run_cli(args, capsys):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_risk_rejects_degenerate_mu0(capsys):
    code, out, err = run_cli(
        ["risk", "--mu0", "0.5", "--trials", "100", "--n", "1000"], capsys
    )
    assert code == 2
    assert out == ""
    assert "mu0" in err and "1/2" in err


def test_lan_dist_csv_structure(capsys):
    code, out, err = run_cli(["lan-dist", "--n-list", "20,50"], capsys)
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "n,dist_T,dist_S,slope_T,slope_S"
    assert len(lines) == 3
    first = lines[1].split(",")
    assert int(first[0]) == 20
    assert all(np.isfinite(float(x)) for x in first[1:])


def test_lan_dist_json_structure(capsys):
    code, out, _ = run_cli(
        ["lan-dist", "--n-list", "20,50", "--format", "json"], capsys
    )
    assert code == 0
    payload = json.loads(out)
    assert set(payload) == {"config", "rows", "slope_T", "slope_S"}
    assert payload["config"]["mu"] == 0.8
    assert [r["n"] for r in payload["rows"]] == [20, 50]


def test_risk_reruns_are_byte_identical(tmp_path, capsys):
    args = [
        "risk",
        "--mu0",
        "0.75",
        "--n",
        "2000",
        "--trials",
        "100",
        "--loss",
        "local",
    ]
    f1 = tmp_path / "a.json"
    f2 = tmp_path / "b.json"
    assert main(args + ["--out", str(f1)]) == 0
    assert main(args + ["--out", str(f2)]) == 0
    capsys.readouterr()
    b1 = f1.read_bytes()
    assert b1 == f2.read_bytes()
    assert len(b1) > 0
    assert not (tmp_path / "a.json.tmp").exists()
    payload = json.loads(b1)
    assert payload["config"]["seed"] == 20260801
    assert payload["reference"] == 3.75


def test_risk_no_truncate_flag(tmp_path, capsys):
    code, out, _ = run_cli(
        [
            "risk",
            "--mu0",
            "0.75",
            "--n",
            "2000",
            "--trials",
            "60",
            "--no-truncate",
        ],
        capsys,
    )
    assert code == 0
    assert json.loads(out)["config"]["truncate"] is False


def test_config_file_precedence(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "# comment line\n"
        "mu0 = 0.9\n"
        "u = 1,0,0\n"
        "n = 4000\n"
    )
    code, out, _ = run_cli(
        ["estimate", "--config", str(cfg), "--mu0", "0.75"], capsys
    )
    assert code == 0
    payload = json.loads(out)
    # flag beats file, file beats default
    assert payload["config"]["mu0"] == 0.75
    assert payload["config"]["u"] == [1.0, 0.0, 0.0]
    assert payload["config"]["n"] == 4000
    assert payload["config"]["sampler"] == "gaussian"


def test_config_file_bad_line(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("mu0: 0.9\n")
    code, _, err = run_cli(["estimate", "--config", str(cfg)], capsys)
    assert code == 2
    assert "key=value" in err


def test_estimate_output_fields(capsys):
    code, out, _ = run_cli(
        ["estimate", "--n", "10000", "--u", "0.5,-0.2,0.3", "--seed", "7"],
        capsys,
    )
    assert code == 0
    payload = json.loads(out)
    assert set(payload) == {
        "config",
        "stage1",
        "u_true_local",
        "u_raw",
        "u_hat",
        "truncated",
        "rho_hat",
        "loss",
    }
    assert payload["stage1"]["n_tilde"] == 6310  # ceil(10000^0.95)
    for key in ("trace_sq", "fidelity", "local"):
        assert payload["loss"][key] >= 0.0
    # reruns with the same seed agree exactly
    code2, out2, _ = run_cli(
        ["estimate", "--n", "10000", "--u", "0.5,-0.2,0.3", "--seed", "7"],
        capsys,
    )
    assert out2 == out


def test_hoeffding_eps_shortcut(capsys):
    code, out, _ = run_cli(
        [
            "hoeffding",
            "--eps",
            "0.15",
            "--n-list",
            "1000",
            "--trials",
            "500",
            "--seed",
            "3",
        ],
        capsys,
    )
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "n,eps,n_tilde,empirical,bound,ok,vacuous"
    assert len(lines) == 2
    cells = lines[1].split(",")
    assert cells[0] == "1000" and float(cells[1]) == 0.15


def test_qsde_check_table(capsys):
    code, out, _ = run_cli(
        [
            "qsde-check",
            "--n-list",
            "400,1600",
            "--collisions",
            "60",
            "--t",
            "2.0",
        ],
        capsys,
    )
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "n,j,m,t,overlap,bound,slope,richardson_delta,norm_drift"
    assert len(lines) == 1 + 4  # m in {1, 2} x two n values
    for line in lines[1:]:
        cells = line.split(",")
        assert int(cells[0]) in (400, 1600)
        assert int(cells[2]) in (1, 2)
        assert 0.0 < float(cells[4]) <= 1.0
        assert float(cells[5]) > 0.0


def test_qsde_check_reports_the_richardson_clamp(capsys):
    """At two and four collisions the Richardson step overshoots 1; the
    reported overlap is the clamped value and the JSON keeps the raw one."""
    code, out, _ = run_cli(
        ["qsde-check", "--n-list", "2,4", "--collisions", "4", "--t", "5", "--format", "json"],
        capsys,
    )
    assert code == 0
    rows = json.loads(out)["rows"]
    assert len(rows) == 4
    for row in rows:
        assert row["overlap"] == min(row["overlap_richardson"], 1.0)
    assert any(row["overlap_richardson"] > 1.0 for row in rows)


def test_unknown_subcommand_exits_via_argparse(capsys):
    with pytest.raises(SystemExit):
        main(["no-such-command"])
    capsys.readouterr()
