"""Command-line interface tests, driven through main(); two tests run in a
fresh interpreter, to see what the commands and the modules import."""

import ast
import dataclasses
import json
import math
import os
import shlex
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import qlan
from qlan import cli
from qlan.cli import COMMANDS, FLAGS, build_parser, main
from qlan.estimator import EstimatorConfig
from qlan.qsde import collision_integrate
from qlan.risk_bench import RiskConfig

README = Path(__file__).resolve().parents[1] / "README.md"


def run_cli(args, capsys):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def strict_json(text):
    """Parse an output as strict JSON: a NaN, Infinity or -Infinity token fails."""

    def no_constant(token):
        raise AssertionError(f"invalid JSON token {token}")

    return json.loads(text, parse_constant=no_constant)


def test_risk_rejects_degenerate_mu0(capsys):
    code, out, err = run_cli(
        ["risk", "--mu0", "0.5", "--trials", "100", "--n", "1000"], capsys
    )
    assert code == 2
    assert out == ""
    assert "mu0" in err and "1/2" in err


def test_risk_rejects_n_below_one(capsys):
    """n = 0 is refused up front, by name, before numpy divides by it."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run_cli(["risk", "--n", "0", "--trials", "60"], capsys)
    assert code == 2 and out == ""
    assert "n = 0" in err


@pytest.mark.parametrize(
    "text, message",
    [("2.7", "'2.7' is not an integer"), ("1000,1e400", "'1e400' overflows")],
)
def test_n_list_takes_exact_integers(capsys, text, message):
    with pytest.raises(SystemExit) as exc:
        main(["risk", "--n-list", text, "--trials", "60"])
    assert exc.value.code == 2
    assert f"argument --n-list: {message}" in capsys.readouterr().err
    assert build_parser().parse_args(["risk", "--n-list", "1e3,2000"]).n_list == (1000, 2000)


@pytest.mark.parametrize(
    "argv, message",
    [
        (["lan-dist", "--u", "nan,0,0", "--n-list", "20"], "--u: 'nan' is not a number"),
        (["estimate", "--u", "nan,0,0"], "--u: 'nan' is not a number"),
        (["lan-dist", "--n-list", "20", "--u", "0,0,inf", "--format", "json"], "--u: 'inf' overflows"),
        (["hoeffding", "--eps", "nan", "--format", "json"], "--eps: 'nan' is not a number"),
        (["hoeffding", "--eps-list", "0.1,-inf"], "--eps-list: '-inf' overflows"),
        (["qsde-check", "--t", "nan"], "--t: 'nan' is not a number"),
        (["qsde-check", "--t", "inf"], "--t: 'inf' overflows"),
        (["risk", "--mu0", "1e400"], "--mu0: '1e400' overflows"),
        (["estimate", "--u", "1,2"], "--u: expected three comma-separated numbers, got '1,2'"),
    ],
)
def test_float_flags_take_finite_numbers(capsys, argv, message):
    """Every float flag, the u triple and the float lists refuse nan and inf
    by name, and the u triple a wrong count, before any output."""
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == "" and f"argument {message}" in captured.err


def test_integer_flags_take_exponent_form(capsys):
    """Every integer flag reads 1e4 as 10000, and a word or a fraction exits 2
    naming the value."""
    parse = build_parser().parse_args
    assert parse(["risk", "--n", "1e4", "--trials", "1e2", "--seed", "7e0"]).n_list == (10000,)
    args = parse(["estimate", "--n", "1e4", "--seed", "1e3"])
    assert (args.n, args.seed) == (10000, 1000) and type(args.n) is int
    assert parse(["qsde-check", "--collisions", "4e2"]).collisions == 400
    for text, message in (("abc", "'abc' is not a number"), ("2.5", "'2.5' is not an integer")):
        for command in ("risk", "estimate"):
            with pytest.raises(SystemExit) as exc:
                main([command, "--n", text])
            assert exc.value.code == 2
            assert f"argument --n: {message}" in capsys.readouterr().err


def test_cli_defaults_are_the_config_defaults():
    """``risk`` and ``estimate`` restate the defaults of RiskConfig and
    EstimatorConfig; each setting they share must agree.  (``hoeffding``'s
    kappa = 0.1 differs on purpose and is not compared.)"""
    config = {
        f.name: f.default
        for cls in (RiskConfig, EstimatorConfig)
        for f in dataclasses.fields(cls)
        if f.default is not dataclasses.MISSING
    }
    compared = set()
    for command in ("risk", "estimate"):
        defaults = COMMANDS[command][-1]
        shared = defaults.keys() & config.keys()
        assert {k: defaults[k] for k in shared} == {k: config[k] for k in shared}, command
        compared |= shared
    assert compared == {"loss", "n_list", "trials", "seed", "kappa", "eps", "eta", "sampler", "truncate"}


def test_every_flag_row_is_used(capsys):
    """Each FLAGS row serves some subcommand, and a deleted knob's flag is
    refused: ``hoeffding`` sums the exact law, so it takes no trials or seed."""
    used = {key for *_, shortcuts, defaults in COMMANDS.values() for key in (*shortcuts, *defaults)}
    assert set(FLAGS) <= used
    for argv in (
        ["risk", "--fock-dim", "16"],
        ["lan-dist", "--eps-tail", "0.2"],
        ["hoeffding", "--trials", "200"],
        ["hoeffding", "--seed", "3"],
    ):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
    capsys.readouterr()


def test_lan_dist_csv_structure(capsys):
    code, out, err = run_cli(["lan-dist", "--n-list", "20,50"], capsys)
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == (
        "n,dist_T,dist_S,clamped,corner_bound_T,corner_bound_S,dropped,"
        "band_weight_T,grid_delta_T,slope_T,slope_S"
    )
    assert len(lines) == 3
    first = lines[1].split(",")
    assert int(first[0]) == 20 and first[3] in ("True", "False")
    assert all(np.isfinite(float(x)) for x in first[1:3] + first[4:])


def test_lan_dist_csv_cells_are_the_json_values(capsys):
    """Each CSV cell of ``lan-dist`` is its JSON row's value (or the
    sweep's slope), to the last digit."""
    argv = ["lan-dist", "--mu", "0.68", "--u", "0,0,3", "--n-list", "20,200"]
    code, out, _ = run_cli(argv, capsys)
    assert code == 0
    header, *lines = out.strip().split("\n")
    code, out, _ = run_cli([*argv, "--format", "json"], capsys)
    assert code == 0
    payload = strict_json(out)
    assert len(lines) == len(payload["rows"]) == 2
    for line, row in zip(lines, payload["rows"]):
        for col, cell in zip(header.split(","), line.split(",")):
            want = row.get(col, payload.get(col))
            assert cell == (str(want) if isinstance(want, (bool, int)) else repr(float(want)))
    assert [row["clamped"] for row in payload["rows"]] == [True, False]


def test_lan_dist_json_structure(capsys):
    code, out, _ = run_cli(
        ["lan-dist", "--n-list", "20,50", "--format", "json"], capsys
    )
    assert code == 0
    payload = strict_json(out)
    assert set(payload) == {"config", "rows", "slope_T", "slope_S"}
    assert payload["config"]["mu"] == 0.8
    assert [r["n"] for r in payload["rows"]] == [20, 50]


@pytest.mark.parametrize(
    "argv",
    [
        ["--mu", "0.55", "--n-list", "400"],
        ["--mu", "0.6", "--u", "0.5,-1,0.3", "--n-list", "30,60,120"],
    ],
)
def test_lan_dist_runs_past_the_typical_set(argv, capsys):
    """Sweeps whose blocks reach past the typical set j_n +- n^0.7 write
    one finite row per n."""
    code, out, err = run_cli(["lan-dist", *argv, "--format", "json"], capsys)
    assert code == 0 and err == ""
    rows = strict_json(out)["rows"]
    assert [r["n"] for r in rows] == [int(n) for n in argv[-1].split(",")]
    keys = ("dist_T", "dist_S", "corner_bound_T", "corner_bound_S", "dropped",
            "band_weight_T", "grid_delta_T")
    for r in rows:
        assert all(isinstance(r[k], float) and np.isfinite(r[k]) for k in keys)


@pytest.mark.parametrize("n_list", ["1", "400,400"])
def test_lan_dist_without_two_distinct_n_has_no_slope(n_list, capsys):
    """A sweep over fewer than two distinct n fixes no slope: nan in CSV and
    null in JSON, which stays strict JSON (no NaN token)."""
    code, out, err = run_cli(["lan-dist", "--n-list", n_list], capsys)
    assert code == 0 and err == ""
    rows = [line.split(",") for line in out.strip().split("\n")[1:]]
    assert [row[-2:] for row in rows] == [["nan", "nan"]] * len(rows)
    assert all(np.isfinite(float(x)) for row in rows for x in row[1:3])
    code, out, _ = run_cli(["lan-dist", "--n-list", n_list, "--format", "json"], capsys)
    assert code == 0
    payload = strict_json(out)
    assert payload["slope_T"] is None and payload["slope_S"] is None


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
    payload = strict_json(b1)
    assert payload["config"]["seed"] == 20260801
    assert payload["reference"] == 3.75


def test_risk_csv_columns_are_the_json_row_keys(capsys):
    """The CSV carries the event counts too: its header is the JSON row's
    keys, and its cells the same values."""
    args = ["risk", "--n", "2000", "--trials", "60", "--seed", "3"]
    code, out, _ = run_cli(args, capsys)
    assert code == 0
    rows = strict_json(out)["rows"]
    code, out, _ = run_cli([*args, "--format", "csv"], capsys)
    assert code == 0
    header, *lines = out.strip().split("\n")
    assert header.split(",") == list(rows[0])
    assert [line.split(",") for line in lines] == [
        [str(v) for v in row.values()] for row in rows
    ]


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
    assert strict_json(out)["config"]["truncate"] is False


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
    payload = strict_json(out)
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


@pytest.mark.parametrize(
    "line, message",
    [
        ("trails = 50", "unknown key 'trails'"),
        ("format = xml", "format = 'xml'"),
        ("truncate = flase", "truncate = 'flase'"),
        ("eta = nan", "eta = 'nan': 'nan' is not a number"),
    ],
)
def test_config_file_values_are_checked(tmp_path, capsys, line, message):
    """An unknown key, a value outside the flag's choices, a word that is
    not a boolean and a non-finite float each exit 2 and name the file line."""
    cfg = tmp_path / "run.cfg"
    cfg.write_text(line + "\n")
    code, out, err = run_cli(
        ["risk", "--n", "2000", "--trials", "60", "--config", str(cfg)], capsys
    )
    assert code == 2
    assert out == ""
    assert f"{cfg}:1: {message}" in err


@pytest.mark.parametrize(
    "args, flags",
    [
        (["risk", "--n", "2000", "--n-list", "1000", "--trials", "60"], ("--n", "--n-list")),
        (
            ["hoeffding", "--eps", "0.15", "--eps-list", "0.3", "--n-list", "1000"],
            ("--eps", "--eps-list"),
        ),
    ],
)
def test_shortcut_and_list_flag_conflict(capsys, args, flags):
    with pytest.raises(SystemExit) as exc:
        main(args)
    err = capsys.readouterr().err
    assert exc.value.code == 2
    assert all(f"argument {flag}" in err for flag in flags)


def test_config_file_shortcut_keys(tmp_path, capsys):
    """A file's shortcut key sets the one-element list, a key may be spelt
    with a dash, a file may not give both forms, and a boolean word is read."""
    cfg = tmp_path / "eps.cfg"
    cfg.write_text("eps = 0.15\nn-list = 1000\n")
    code, from_file, _ = run_cli(["hoeffding", "--config", str(cfg)], capsys)
    assert code == 0
    from_flags = run_cli(["hoeffding", "--eps", "0.15", "--n-list", "1000"], capsys)[1]
    assert from_file == from_flags

    both = tmp_path / "both.cfg"
    both.write_text("n = 2000\nn_list = 1000\n")
    code, out, err = run_cli(["risk", "--trials", "60", "--config", str(both)], capsys)
    assert code == 2 and out == ""
    assert f"{both}:2: 'n_list'" in err and "'n'" in err

    off = tmp_path / "off.cfg"
    off.write_text("truncate = off\nn = 2000\n")
    code, out, _ = run_cli(["risk", "--trials", "60", "--config", str(off)], capsys)
    assert code == 0
    assert strict_json(out)["config"]["truncate"] is False


def test_estimate_is_json_only(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["estimate", "--format", "csv"])
    assert exc.value.code == 2
    cfg = tmp_path / "csv.cfg"
    cfg.write_text("format = csv\n")
    code, out, err = run_cli(["estimate", "--config", str(cfg)], capsys)
    assert code == 2 and out == ""
    assert "format" in err


def readme_cli_lines() -> list:
    """The ``qlan`` lines of the README's CLI block, comments cut."""
    section = README.read_text(encoding="utf-8").split("\n## CLI\n", 1)[1]
    block = section.split("```sh\n", 1)[1].split("```", 1)[0]
    lines = [ln.split("#", 1)[0].strip() for ln in block.splitlines()]
    return [ln for ln in lines if ln.startswith("qlan ")]


def test_readme_cli_lines_parse():
    """Every ``qlan`` line of the README's CLI block names existing flags
    (parsed only, not run)."""
    lines = readme_cli_lines()
    assert len(lines) >= 5
    for line in lines:
        try:
            build_parser().parse_args(shlex.split(line)[1:])
        except SystemExit:
            pytest.fail(f"README line does not parse: {line}")


# Lines the tests above parse or refuse, for the one-command parser to match.
PARSED_ARGV = [
    ["risk", "--n-list", "1e3,2000"],
    ["risk", "--n", "1e4", "--trials", "1e2", "--seed", "7e0"],
    ["risk", "--n-list", "2.7"],
    ["risk", "--n", "2000", "--n-list", "1000", "--trials", "60"],
    ["risk", "--fock-dim", "16"],
    ["lan-dist", "--u", "nan,0,0", "--n-list", "20"],
    ["lan-dist", "--eps-tail", "0.2"],
    ["estimate", "--n", "1e4", "--seed", "1e3"],
    ["estimate", "--u", "1,2"],
    ["estimate", "--format", "csv"],
    ["qsde-check", "--collisions", "4e2"],
    ["qsde-check", "--t", "inf"],
    ["hoeffding", "--trials", "200"],
    ["hoeffding", "--seed", "3"],
    ["hoeffding", "--eps", "0.15", "--eps-list", "0.3", "--n-list", "1000"],
]


def parse_outcome(parser, argv, capsys):
    """The namespace, or the exit code, and the text written on the way."""
    try:
        result = vars(parser.parse_args(argv))
    except SystemExit as exc:
        result = exc.code
    return result, capsys.readouterr()


@pytest.mark.parametrize("command", list(COMMANDS))
def test_one_command_parser_is_the_full_parser(command, capsys):
    """``build_parser(command)`` builds that subcommand alone; on its lines
    of these tests and of the README, and on ``-h``, it gives the full
    parser's namespace, exit code and help or error text, byte for byte."""
    readme = [shlex.split(line)[1:] for line in readme_cli_lines()]
    lines = [argv for argv in PARSED_ARGV + readme if argv[0] == command]
    assert lines
    for argv in lines + [[command, "-h"]]:
        one = parse_outcome(build_parser(command), argv, capsys)
        assert one == parse_outcome(build_parser(), argv, capsys), argv


def test_main_builds_the_named_command_only(monkeypatch, capsys):
    """``main`` builds one subparser when the first word names a command,
    and all of them otherwise, so that argparse lists the choices."""
    built = []

    def recorded(command=None):
        built.append(command)
        return build_parser(command)

    monkeypatch.setattr(cli, "build_parser", recorded)
    for argv in (["qsde-check", "-h"], ["no-such-command"], ["-h"]):
        with pytest.raises(SystemExit):
            main(argv)
    assert built == ["qsde-check", None, None]
    assert "{lan-dist,risk,qsde-check,estimate,hoeffding}" in capsys.readouterr().out


def test_estimate_output_fields(capsys):
    code, out, _ = run_cli(
        ["estimate", "--n", "10000", "--u", "0.5,-0.2,0.3", "--seed", "7"],
        capsys,
    )
    assert code == 0
    payload = strict_json(out)
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


# qlan estimate --n 10000 --u 0.5,-0.2,0.3 --seed 7, re-recorded when the
# seeded streams moved to SFC64 and stage 1 to per-axis binomial draws, and
# when the losses were scored in the stage-1 frames (sqrt for hypot, the
# cancellation-free infidelity; last digits only): both samplers share
# stage 1 and the true local parameter; per sampler (u_raw = u_hat, Bloch
# estimate, (trace_sq, fidelity, local) losses), nothing truncated
ESTIMATE_STAGE1 = {
    "n_tilde": 6310,
    "r_raw": [0.026615969581748944, 0.011887779362814932, 0.4731336186400381],
    "mu_tilde": 0.7370153740912035,
}
ESTIMATE_U_TRUE = [-0.4583299550432284, 1.584969176055431, 0.9709920182416346]
ESTIMATE_PINNED = {
    "gaussian": (
        [-0.28244014392171857, 1.674257937602041, 1.5695760460923711],
        [0.0005566524169574052, 0.00829900765658624, 0.5256421676844618],
        (0.0003996133165856089, 0.00013511787080290697, 1.4730604981912478),
    ),
    "exact": (
        [-0.486706526370953, 0.7351911885354014, 0.275988920603404],
        [0.015446108428361232, 0.004380609160861145, 0.48285064216542395],
        (0.0007151503519567968, 0.0002211810472850875, 2.67249945098136),
    ),
}


@pytest.mark.parametrize("sampler", list(ESTIMATE_PINNED))
def test_estimate_payload_is_pinned(sampler, capsys):
    """The single run reads column 0 of a batch of one and writes, byte for
    byte, the recorded payload."""
    args = ["estimate", "--n", "10000", "--u", "0.5,-0.2,0.3", "--seed", "7"]
    code, out, _ = run_cli(args + ["--sampler", sampler], capsys)
    assert code == 0
    u_raw, bloch, (trace_sq, fid, local) = ESTIMATE_PINNED[sampler]
    want = {
        "config": {
            "mu0": 0.75, "u": [0.5, -0.2, 0.3], "n": 10000, "sampler": sampler,
            "eps": 0.05, "eta": 0.08, "kappa": 0.05, "seed": 7,
        },
        "stage1": ESTIMATE_STAGE1,
        "u_true_local": ESTIMATE_U_TRUE,
        "u_raw": u_raw,
        "u_hat": u_raw,
        "truncated": [False, False, False],
        "rho_hat": {"bloch": bloch},
        "loss": {"trace_sq": trace_sq, "fidelity": fid, "local": local},
    }
    assert out == json.dumps(want, indent=2) + "\n"


_PURE = ["--mu0", "0.99", "--u", "30,0,1", "--n", "10000", "--seed", "3"]


@pytest.mark.parametrize(
    "args, keyword",
    [
        (["--mu0", "0.51", "--n", "10000"], "maximally mixed"),
        (["--mu0", "0.999", "--n", "16", "--seed", "1"], "degenerate"),
        (_PURE + ["--sampler", "gaussian"], "pure"),
        (_PURE + ["--sampler", "exact"], "pure"),
    ],
    ids=["margin", "degenerate", "pure-gaussian", "pure-exact"],
)
def test_estimate_outside_model_exits_1(args, keyword, capsys):
    """A run outside the model writes nothing, names the reason and exits 1:
    a state within the model margin of maximally mixed, a stage-1 estimate
    on the boundary of the Bloch ball, and, with either sampler, a pure
    true state (eigenvalue 0.99 + 1 / sqrt(n))."""
    code, out, err = run_cli(["estimate", *args], capsys)
    assert code == 1 and out == ""
    assert keyword in err


@pytest.mark.parametrize(
    "args, named, unnamed",
    [
        (["estimate", "--n", "0"], "--n 0", "division"),
        (["estimate", "--n", "-5"], "--n -5", "domain"),
        (["risk", "--trials", "10", "--n", "1000"], "trials = 10", "batches ="),
        (["qsde-check", "--n-list", "1,400"], "n = 1 in --n-list", "initial level"),
        (["qsde-check", "--eps", "10", "--n-list", "1000"], "--eps 10:", "e+43"),
        (["qsde-check", "--eps", "0", "--n-list", "1000"], "--eps 0:", "overlap"),
        (["qsde-check", "--eps", "-1", "--n-list", "1000"], "--eps -1:", "overlap"),
        (["risk", "--mu0", "0.549", "--n", "1000000", "--trials", "20"], "mu0 = 0.549", "1995248"),
        (["estimate", "--n", "5"], "n = 5 leaves no copies for stage 2", "division"),
        (["qsde-check", "--t", "0", "--n-list", "1000"], "--t 0", "K = 400"),
    ],
)
def test_refusals_name_the_flag(args, named, unnamed, capsys):
    """A setting no run can take exits 2 with a message that names the flag
    set, not with the arithmetic failure or internal count it causes."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run_cli(args, capsys)
    assert code == 2 and out == ""
    assert named in err and unnamed not in err


def test_hoeffding_eps_shortcut(tmp_path, capsys):
    """The shortcut sets a one-element list.  ``hoeffding`` draws nothing, so
    two runs to files agree byte for byte and the JSON echoes no trials or seed."""
    code, out, _ = run_cli(["hoeffding", "--eps", "0.15", "--n-list", "1000"], capsys)
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "n,eps,n_tilde,probability,pruned,bound,ok,vacuous"
    assert len(lines) == 2
    cells = lines[1].split(",")
    assert cells[0] == "1000" and float(cells[1]) == 0.15
    assert 0.0 < float(cells[3]) + float(cells[4]) <= float(cells[5])
    f1, f2 = tmp_path / "a.json", tmp_path / "b.json"
    for out in (f1, f2):
        assert main(["hoeffding", "--eps", "0.15", "--format", "json", "--out", str(out)]) == 0
    capsys.readouterr()
    assert f1.read_bytes() == f2.read_bytes()
    assert set(strict_json(f1.read_bytes())["config"]) == {"mu0", "n_list", "eps_list", "kappa"}


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
    assert lines[0] == "n,j,m,t,overlap,bound,slope,richardson_delta"
    assert len(lines) == 1 + 4  # m in {1, 2} x two n values
    for line in lines[1:]:
        cells = line.split(",")
        assert int(cells[0]) in (400, 1600)
        assert int(cells[2]) in (1, 2)
        assert 0.0 < float(cells[4]) <= 1.0
        assert float(cells[5]) > 0.0


def test_qsde_check_probes_a_spin_of_odd_n(capsys):
    """For an odd number of qubits the spins are half-integers; the probe
    is the one nearest j_n + n^(3/4) (428.15 and 1503.4 here)."""
    code, out, _ = run_cli(
        ["qsde-check", "--n-list", "1001,4001", "--collisions", "60", "--format", "json"], capsys
    )
    assert code == 0
    rows = strict_json(out)["rows"]
    assert [row["j"] for row in rows] == [428.5, 1503.5] * 2


@pytest.mark.parametrize("eps", [0.05, 0.1, 0.2, 0.25])
def test_qsde_check_probes_the_edge_of_its_window(eps, capsys):
    """``--eps`` sets both the bound and the probe, the spin nearest
    j_n + n^(1/2+eps); there the chordal deficit sqrt(2 (1 - overlap)) lies
    under the bound for m = 1 and 2.  At eps = 0.1 the point j_n + n^(3/4)
    lies outside the window, and its deficit exceeds the bound (0.26 against
    0.24 at n = 1000)."""
    code, out, _ = run_cli(
        ["qsde-check", "--n-list", "1000,4000,16000", "--eps", str(eps), "--format", "json"],
        capsys,
    )
    assert code == 0
    for row in strict_json(out)["rows"]:
        n = row["n"]
        assert row["j"] == round(0.25 * n + n ** (0.5 + eps))
        assert math.sqrt(2.0 * (1.0 - row["overlap"])) < row["bound"]


def test_qsde_check_integrates_twice_per_n(monkeypatch, capsys):
    """One run from the starts 0..2 serves both probes, at K and at K/2."""
    calls = []

    def counted(*args):
        calls.append(args[1:])
        return collision_integrate(*args)

    monkeypatch.setattr(cli, "collision_integrate", counted)
    code, _, _ = run_cli(["qsde-check", "--n-list", "400,1600", "--collisions", "60"], capsys)
    assert code == 0
    assert [(top, k) for _, top, _, k in calls] == [(2, 60), (2, 30)] * 2


def test_qsde_check_refuses_one_collision(capsys):
    """The Richardson step also runs half the collisions, so one collision
    is refused by its flag's name, not as a zero-collision run."""
    code, out, err = run_cli(["qsde-check", "--n-list", "400", "--collisions", "1"], capsys)
    assert code == 2 and out == ""
    assert "--collisions 1" in err and "K = 0" not in err


@pytest.mark.parametrize(
    "args, message",
    [
        (["--n-list", "2"], "n = 2 in n_list"),
        (["--kappa", "-1", "--n-list", "100"], "kappa = -1.0"),
        (["--kappa", "1", "--n-list", "100"], "kappa = 1.0"),
        (["--n-list", "0"], "n = 0 in n_list"),
        (["--n-list", "1000,-5"], "n = -5 in n_list"),
        (["--eps", "100", "--n-list", "1000"], "eps = 100.0: t = 3 n^(2 eps - 1) must shrink"),
        (["--eps", "-300", "--n-list", "1000"], "eps = -300.0: t = 3 n^(2 eps - 1) must shrink"),
        (["--eps", "0.5", "--n-list", "1000"], "eps = 0.5: t = 3 n^(2 eps - 1) must shrink"),
    ],
)
def test_hoeffding_refuses_impossible_inputs(args, message, capsys):
    """An n whose stage 1 has fewer than three copies, one per axis, a
    stage 1 of more than n copies (kappa <= 0) or of one copy (kappa >= 1),
    or an eps outside (0, 1/2), where the threshold t = 3 n^(2 eps - 1)
    would not shrink with n (eps = 100 overflowed it, eps = -300 asked for
    P(error > 0)), exits 2 by name and writes no row."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run_cli(["hoeffding", *args], capsys)
    assert code == 2 and out == ""
    assert message in err


def test_qsde_check_reports_the_richardson_clamp(capsys):
    """At two and four collisions the Richardson step overshoots 1; the
    reported overlap is the clamped value and the JSON keeps the raw one."""
    code, out, _ = run_cli(
        ["qsde-check", "--n-list", "2,4", "--collisions", "4", "--t", "5", "--format", "json"],
        capsys,
    )
    assert code == 0
    rows = strict_json(out)["rows"]
    assert len(rows) == 4
    for row in rows:
        assert row["overlap"] == min(row["overlap_richardson"], 1.0)
    assert any(row["overlap_richardson"] > 1.0 for row in rows)


def test_unknown_subcommand_exits_via_argparse(capsys):
    with pytest.raises(SystemExit):
        main(["no-such-command"])
    capsys.readouterr()


SCIPY_FREE = """
import contextlib, io, json, sys

def scipy_modules():
    return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))

from qlan.cli import main

loaded = {"import qlan.cli": scipy_modules()}
loaded["import qlan.cli: concurrent"] = sorted(m for m in sys.modules if m.startswith("concurrent"))
for argv in (
    ["estimate", "--n", "10000", "--seed", "7"],
    ["risk", "--n-list", "10000", "--trials", "200"],
    ["hoeffding"],
    ["qsde-check", "--n-list", "1000,4000"],
    ["lan-dist", "--n-list", "20,50"],
    ["risk", "--sampler", "exact", "--n-list", "400", "--trials", "20"],
):
    with contextlib.redirect_stdout(io.StringIO()):
        code = main(argv)
    loaded[" ".join(argv)] = scipy_modules() if code == 0 else f"exit {code}"
print(json.dumps(loaded))
"""


def fresh_python(code: str) -> str:
    """The last stdout line of ``code`` run in a fresh interpreter that
    imports qlan from this checkout."""
    src = str(Path(qlan.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    proc = subprocess.run(
        [sys.executable, "-c", code],
        env=dict(os.environ, PYTHONPATH=path),
        capture_output=True,
        text=True,
        timeout=300,
        check=False,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()[-1]


def test_gaussian_limit_commands_never_load_scipy():
    """`import qlan.cli` and every command run on numpy alone: the commands
    that sample the Gaussian limit, `hoeffding`, `qsde-check`, and also
    `lan-dist` and the exact sampler, whose ladder vectors come from the
    package's own twisted-factorization kernel: no scipy module at all.
    `import qlan.cli` also leaves out `concurrent.futures`, which only the
    thread pool of `operator_core.pool_map` needs, and imports when it first
    runs one.  A fresh interpreter, because this one has both loaded
    already."""
    loaded = strict_json(fresh_python(SCIPY_FREE))
    assert len(loaded) == 8
    assert all(mods == [] for mods in loaded.values()), loaded


def test_src_imports_only_the_standard_library_numpy_and_qlan():
    """Every import in `src/qlan`, function-local ones included, names a
    standard-library module, numpy or qlan itself, so no scipy import can
    come back, lazily, on a path the command fence above does not run."""
    files = sorted((Path(qlan.__file__).resolve().parent).glob("*.py"))
    assert len(files) >= 10
    for path in files:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = ["qlan" if node.level else node.module]
            else:
                continue
            for name in names:
                top = name.split(".")[0]
                assert top in sys.stdlib_module_names or top in ("numpy", "qlan"), (
                    f"{path.name}:{node.lineno} imports {name}"
                )


IMPORT_ALONE = """
import json, sys

def purge():
    for name in [m for m in sys.modules if m == "qlan" or m.startswith("qlan.")]:
        del sys.modules[name]

import qlan
loaded = {"qlan": sorted(m for m in sys.modules if m.startswith("qlan."))}
for module in MODULES:
    purge()
    try:
        __import__(module)
        loaded[module] = "ok"
    except Exception as exc:
        loaded[module] = repr(exc)
print(json.dumps(loaded))
"""


def test_each_module_imports_alone():
    """`import qlan` loads no module of the package: the API is reached
    through the modules.  Each module then imports alone, with every qlan
    module purged first, so none leans on an import the package or another
    module made for it."""
    src = Path(qlan.__file__).resolve().parent
    modules = sorted(f"qlan.{p.stem}" for p in src.glob("*.py") if p.stem != "__init__")
    loaded = strict_json(fresh_python(f"MODULES = {modules!r}" + IMPORT_ALONE))
    assert loaded == {"qlan": [], **dict.fromkeys(modules, "ok")}


def test_every_tolerance_is_read_in_the_package():
    """Each upper-case constant of ``qlan.tolerances`` is read by another
    module of the package, so a deleted check cannot leave its tolerance
    behind.  An import alone does not count: the name must be used."""
    src = Path(qlan.__file__).resolve().parent
    defined = {
        target.id
        for node in ast.parse((src / "tolerances.py").read_text()).body
        if isinstance(node, ast.Assign)
        for target in node.targets
        if isinstance(target, ast.Name) and target.id.isupper()
    }
    read = {
        node.id
        for path in src.glob("*.py")
        if path.stem != "tolerances"
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Name)
    }
    assert defined and sorted(defined - read) == []
