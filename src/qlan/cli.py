"""Command-line front end.

Subcommands
-----------
lan-dist    convergence of the block data to/from the Gaussian limit
risk        Monte Carlo local sup-risk of the two-stage estimator
qsde-check  collision-model vs closed-form xi validation table
estimate    one full two-stage run with diagnostics
hoeffding   stage-1 large-deviation bound check

Every run embeds its configuration (seed included) in the output, writes
files atomically, and is byte-reproducible for the same specification.
Validation problems exit with status 2 and name the offending parameter;
runtime failures exit 1.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

import numpy as np

from .estimator import EstimatorConfig, full_estimate
from .lan_channels import convergence_sweep
from .operator_core import density_to_bloch
from .qsde import collision_integrate, xi_error_bound, xi_overlap, xi_state
from .risk_bench import (
    RiskConfig,
    hoeffding_check,
    local_sup_risk,
    loss_fidelity,
    loss_local,
    loss_trace_sq,
)
from .spin_blocks import ModelParams, local_qubit_state


def _parse_triple(text: str) -> tuple:
    parts = text.split(",")
    if len(parts) != 3:
        raise argparse.ArgumentTypeError(
            f"expected three comma-separated numbers, got {text!r}"
        )
    return tuple(float(p) for p in parts)


def _parse_int_list(text: str) -> tuple:
    return tuple(int(float(p)) for p in text.split(","))


def _parse_float_list(text: str) -> tuple:
    return tuple(float(p) for p in text.split(","))


def _read_config_file(path: str) -> dict:
    out = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected key=value, got {line!r}")
            key, val = line.split("=", 1)
            out[key.strip().replace("-", "_")] = val.strip()
    return out


def _parse_bool(text: str) -> bool:
    return text.lower() in ("1", "true", "on", "yes")


def _merge_config(args: argparse.Namespace, defaults: dict) -> dict:
    """flag > config-file > default, for every key in ``defaults``; a file
    value goes through the parser of its flag."""
    file_vals = {}
    if getattr(args, "config", None):
        raw = _read_config_file(args.config)
        for key, text in raw.items():
            if key in defaults:
                file_vals[key] = args.file_types.get(key, str)(text)
    merged = {}
    for key, default in defaults.items():
        flag_val = getattr(args, key, None)
        if flag_val is not None:
            merged[key] = flag_val
        elif key in file_vals:
            merged[key] = file_vals[key]
        else:
            merged[key] = default
    return merged


def _emit(text: str, out: str | None) -> None:
    """Write to stdout, or atomically to the file ``out``."""
    if out:
        tmp = f"{out}.tmp"
        with open(tmp, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
        os.replace(tmp, out)
    else:
        sys.stdout.write(text)


def _csv_cell(v) -> str:
    return repr(float(v)) if isinstance(v, float) else str(v)


def _emit_rows(rows: list, cols, config: dict, fmt: str, out: str | None, **totals) -> None:
    """Write rows as CSV (columns ``cols``; a column a row lacks takes its
    ``totals`` value) or as JSON {"config", "rows", **totals}, where a
    non-finite float in a row becomes null."""
    if fmt == "json":
        rows = [
            {k: None if isinstance(v, float) and not math.isfinite(v) else v for k, v in r.items()}
            for r in rows
        ]
        text = json.dumps({"config": config, "rows": rows, **totals}, indent=2)
    else:
        lines = [",".join(cols)]
        lines += [",".join(_csv_cell(r.get(c, totals.get(c))) for c in cols) for r in rows]
        text = "\n".join(lines)
    _emit(text + "\n", out)


def _check_mu(value: float, name: str) -> None:
    if not (0.5 < value < 1.0):
        raise ValueError(
            f"--{name} {value}: the model requires the larger eigenvalue {name} "
            f"to lie strictly between 1/2 and 1 ({name} > 1/2)"
        )


def cmd_lan_dist(args: argparse.Namespace) -> int:
    spec = _merge_config(
        args,
        {
            "mu": 0.8,
            "u": (1.0, 1.0, 1.0),
            "n_list": (20, 50, 100, 200, 400),
            "eps_tail": 0.2,
            "format": "csv",
            "out": None,
        },
    )
    _check_mu(spec["mu"], "mu")
    result = convergence_sweep(spec["mu"], spec["u"], spec["n_list"], spec["eps_tail"])
    rows = [
        {
            "n": r.n,
            "dist_T": r.dist_T,
            "dist_S": r.dist_S,
            "u_effective": list(r.u_effective),
            "clamped": r.clamped,
            "corner_bound_T": r.corner_bound_T,
            "corner_bound_S": r.corner_bound_S,
        }
        for r in result.rows
    ]
    _emit_rows(
        rows,
        ("n", "dist_T", "dist_S", "slope_T", "slope_S"),
        {k: spec[k] for k in ("mu", "u", "n_list", "eps_tail")},
        spec["format"],
        spec["out"],
        slope_T=result.slope_T,
        slope_S=result.slope_S,
    )
    return 0


def cmd_risk(args: argparse.Namespace) -> int:
    spec = _merge_config(
        args,
        {
            "mu0": 0.75,
            "loss": "trace",
            "n": None,
            "n_list": None,
            "trials": 10_000,
            "sampler": "gaussian",
            "eps": 0.05,
            "eta": 0.08,
            "kappa": 0.05,
            "fock_dim": None,
            "seed": 20260801,
            "truncate": True,
            "format": "json",
            "out": None,
        },
    )
    _check_mu(spec["mu0"], "mu0")
    if spec["n_list"] is None:
        spec["n_list"] = (spec["n"],) if spec["n"] else (10**6,)
    est = EstimatorConfig(
        kappa=spec["kappa"],
        eps=spec["eps"],
        eta=spec["eta"],
        sampler=spec["sampler"],
        fock_dim=spec["fock_dim"],
        truncate=spec["truncate"],
    )
    cfg = RiskConfig(
        mu0=spec["mu0"],
        loss=spec["loss"],
        n_list=tuple(spec["n_list"]),
        trials=spec["trials"],
        eps=spec["eps"],
        seed=spec["seed"],
        estimator=est,
    ).validate()
    report = local_sup_risk(cfg)
    _emit_rows(
        report.rows,
        ("n", "label", "ux", "uy", "uz", "mean", "stderr", "trials"),
        report.config,
        spec["format"],
        spec["out"],
        sup=report.sup,
        reference=report.reference,
        argmax=report.argmax,
    )
    return 0


def cmd_qsde_check(args: argparse.Namespace) -> int:
    spec = _merge_config(
        args,
        {
            "mu": 0.75,
            "n_list": (1000, 4000, 16_000),
            "t": 5.0,
            "collisions": 400,
            "eps": 0.25,
            "format": "csv",
            "out": None,
        },
    )
    _check_mu(spec["mu"], "mu")
    # Probe at the edge of the typical window, j = j_n + n^(3/4), where the
    # closed-form error is dominated by the |j - j_n|/n term and scales as
    # the bound with eps = 1/4 (a factor sqrt(2) per quadrupling of n).
    rows = []
    for m in (1, 2):
        deficits = []
        for n in spec["n_list"]:
            params = ModelParams(spec["mu"], int(n))
            j = min(round(params.j_n) + round(float(n) ** 0.75), n // 2)
            xi = xi_state(params, j, m, spec["t"])
            waves = [
                collision_integrate(params, j, m, spec["t"], k)
                for k in (spec["collisions"], spec["collisions"] // 2)
            ]
            ov_full, ov_half = (xi_overlap(w, xi) for w in waves)
            # Richardson in 1/K removes the leading discretization error; it can
            # overshoot 1, so it is clamped and the deficit floored at 1e-16
            ov_rich = 2.0 * ov_full - ov_half
            ov = min(ov_rich, 1.0)
            deficit = math.sqrt(2.0 * max(1.0 - ov, 1e-16))
            deficits.append(deficit)
            bound = xi_error_bound(params, j, m, spec["eps"])
            rows.append(
                {
                    "n": int(n),
                    "j": float(j),
                    "m": m,
                    "t": spec["t"],
                    "overlap": ov,
                    "overlap_richardson": ov_rich,
                    "bound": bound,
                    "richardson_delta": ov_full - ov_half,
                    "norm_drift": max(abs(w.norm() - 1.0) for w in waves),
                }
            )
        n_arr = np.asarray(spec["n_list"], dtype=float)
        if len(set(spec["n_list"])) >= 2:
            slope = float(np.polyfit(np.log(n_arr), np.log(deficits), 1)[0])
        else:
            slope = float("nan")  # a slope needs at least two distinct n
        for row in rows:
            if row["m"] == m:
                row["slope"] = slope
    _emit_rows(
        rows,
        ("n", "j", "m", "t", "overlap", "bound", "slope", "richardson_delta", "norm_drift"),
        {k: spec[k] for k in ("mu", "n_list", "t", "collisions", "eps")},
        spec["format"],
        spec["out"],
    )
    return 0


def cmd_estimate(args: argparse.Namespace) -> int:
    spec = _merge_config(
        args,
        {
            "mu0": 0.75,
            "u": (0.0, 0.0, 0.0),
            "n": 10_000,
            "sampler": "gaussian",
            "eps": 0.05,
            "eta": 0.08,
            "kappa": 0.05,
            "fock_dim": None,
            "seed": 20260801,
            "format": "json",
            "out": None,
        },
    )
    _check_mu(spec["mu0"], "mu0")
    n = int(spec["n"])
    rho_true = local_qubit_state(
        spec["mu0"], tuple(c / math.sqrt(n) for c in spec["u"])
    )
    cfg = EstimatorConfig(
        kappa=spec["kappa"],
        eps=spec["eps"],
        eta=spec["eta"],
        sampler=spec["sampler"],
        fock_dim=spec["fock_dim"],
    ).validate()
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(spec["seed"])))
    res = full_estimate(rho_true, n, cfg, rng)
    r_true = density_to_bloch(rho_true)
    mu_true = 0.5 * (1.0 + float(np.linalg.norm(r_true)))
    payload = {
        "config": {
            k: spec[k]
            for k in ("mu0", "u", "n", "sampler", "eps", "eta", "kappa", "seed")
        },
        "stage1": {
            "n_tilde": res.stage1.n_tilde,
            "r_raw": [float(x) for x in res.stage1.r_raw],
            "mu_tilde": res.stage1.mu_tilde,
        },
        "u_true_local": list(res.u_true_local.as_array()),
        "u_raw": list(res.u_raw),
        "u_hat": list(res.u_hat.as_array()),
        "truncated": [bool(b) for b in res.trunc_flags],
        "rho_hat": {
            "bloch": [float(x) for x in res.r_hat],
        },
        "loss": {
            "trace_sq": float(loss_trace_sq(r_true, res.r_hat)),
            "fidelity": float(loss_fidelity(r_true, res.r_hat)),
            "local": float(
                loss_local(
                    res.u_true_local.as_array(), res.u_hat.as_array(), mu_true
                )
            ),
        },
    }
    _emit(json.dumps(payload, indent=2) + "\n", spec["out"])
    return 0


def cmd_hoeffding(args: argparse.Namespace) -> int:
    spec = _merge_config(
        args,
        {
            "mu0": 0.75,
            "n_list": (1000, 10_000, 100_000),
            "eps_list": (0.1, 0.2),
            "kappa": 0.1,
            "trials": 10_000,
            "seed": 20260801,
            "format": "csv",
            "out": None,
        },
    )
    _check_mu(spec["mu0"], "mu0")
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(spec["seed"])))
    rows = hoeffding_check(
        spec["n_list"], spec["eps_list"], spec["kappa"], spec["trials"], rng,
        mu0=spec["mu0"],
    )
    _emit_rows(
        rows,
        ("n", "eps", "n_tilde", "empirical", "bound", "ok", "vacuous"),
        {k: spec[k] for k in ("mu0", "n_list", "eps_list", "kappa", "trials", "seed")},
        spec["format"],
        spec["out"],
    )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qlan",
        description="Qubit state estimation through its Gaussian limit: "
        "convergence checks, dynamics validation, and risk benchmarks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="key=value file; flags take precedence")
        p.add_argument("--out", help="output file (default: stdout)")
        p.add_argument("--format", choices=("csv", "json"), help="output format")
        types = {a.dest: a.type for a in p._actions if a.type is not None}
        p.set_defaults(file_types={"truncate": _parse_bool, **types})

    p = sub.add_parser("lan-dist", help="block data vs Gaussian limit distances")
    p.add_argument("--mu", type=float, help="reference eigenvalue in (1/2, 1)")
    p.add_argument("--u", type=_parse_triple, help="local parameter ux,uy,uz")
    p.add_argument("--n-list", dest="n_list", type=_parse_int_list)
    p.add_argument("--eps-tail", dest="eps_tail", type=float)
    common(p)
    p.set_defaults(func=cmd_lan_dist)

    p = sub.add_parser("risk", help="Monte Carlo local sup-risk benchmark")
    p.add_argument("--mu0", type=float, help="reference eigenvalue in (1/2, 1)")
    p.add_argument("--loss", choices=("trace", "fidelity", "local"))
    p.add_argument("--n", type=int)
    p.add_argument("--n-list", dest="n_list", type=_parse_int_list)
    p.add_argument("--trials", type=int)
    p.add_argument("--sampler", choices=("gaussian", "exact"))
    p.add_argument("--eps", type=float)
    p.add_argument("--eta", type=float)
    p.add_argument("--kappa", type=float)
    p.add_argument("--fock-dim", dest="fock_dim", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument(
        "--no-truncate",
        dest="truncate",
        action="store_const",
        const=False,
        help="disable the 3 n^eta truncation (calibration runs)",
    )
    common(p)
    p.set_defaults(func=cmd_risk)

    p = sub.add_parser("qsde-check", help="collision model vs closed-form xi")
    p.add_argument("--mu", type=float)
    p.add_argument("--n-list", dest="n_list", type=_parse_int_list)
    p.add_argument("--t", type=float)
    p.add_argument("--collisions", type=int)
    p.add_argument("--eps", type=float)
    common(p)
    p.set_defaults(func=cmd_qsde_check)

    p = sub.add_parser("estimate", help="single two-stage estimation run")
    p.add_argument("--mu0", type=float)
    p.add_argument("--u", type=_parse_triple)
    p.add_argument("--n", type=int)
    p.add_argument("--sampler", choices=("gaussian", "exact"))
    p.add_argument("--eps", type=float)
    p.add_argument("--eta", type=float)
    p.add_argument("--kappa", type=float)
    p.add_argument("--fock-dim", dest="fock_dim", type=int)
    p.add_argument("--seed", type=int)
    common(p)
    p.set_defaults(func=cmd_estimate)

    p = sub.add_parser("hoeffding", help="stage-1 large-deviation check")
    p.add_argument("--mu0", type=float)
    p.add_argument("--n-list", dest="n_list", type=_parse_int_list)
    p.add_argument("--eps", type=float, help="single eps (shortcut for a one-cell list)")
    p.add_argument("--eps-list", dest="eps_list", type=_parse_float_list)
    p.add_argument("--kappa", type=float)
    p.add_argument("--trials", type=int)
    p.add_argument("--seed", type=int)
    common(p)
    p.set_defaults(func=cmd_hoeffding)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "eps", None) is not None and args.command == "hoeffding":
        if getattr(args, "eps_list", None) is None:
            args.eps_list = (args.eps,)
    try:
        return args.func(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # runtime failure
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
