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
import dataclasses
import json
import math
import os
import sys

from .estimator import EstimatorConfig, OutsideModelError, full_estimate
from .lan_channels import convergence_sweep, loglog_slope
from .qsde import collision_integrate, xi_error_bound, xi_overlap, xi_state
from .risk_bench import (
    RiskConfig,
    hoeffding_check,
    json_report,
    local_sup_risk,
    loss_fidelity,
    loss_local,
    loss_trace_sq,
    seeded_rng,
)
from .spin_blocks import ModelParams, local_qubit_state
from .tolerances import MODEL_MARGIN


def _parse_triple(text: str) -> tuple:
    parts = text.split(",")
    if len(parts) != 3:
        raise argparse.ArgumentTypeError(
            f"expected three comma-separated numbers, got {text!r}"
        )
    return tuple(_parse_float(p) for p in parts)


def _parse_float(text: str) -> float:
    """A finite number; words, nan, inf and overflows (1e400) are refused."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"{text!r} is not a number") from None
    if not math.isfinite(value):
        problem = "overflows" if math.isinf(value) else "is not a number"
        raise argparse.ArgumentTypeError(f"{text!r} {problem}")
    return value


def _parse_int(text: str) -> int:
    """An integer, also in exponent form (1e6); 2.7, 1e400 and words are refused."""
    try:
        return int(text)
    except ValueError:
        pass
    value = _parse_float(text)
    if not value.is_integer():
        raise argparse.ArgumentTypeError(f"{text!r} is not an integer")
    return int(value)


def _list_of(parse):
    """A parser of comma-separated items, each read by ``parse``."""
    return lambda text: tuple(parse(p) for p in text.split(","))


def _parse_bool(text: str) -> bool:
    word = text.lower()
    if word not in ("1", "0", "true", "false", "on", "off", "yes", "no"):
        raise ValueError(f"expected 1/0/true/false/on/off/yes/no, got {text!r}")
    return word in ("1", "true", "on", "yes")


# Every setting once: type, choices (None: any value of the type) and help.
# A config file's value goes through the same type and choices as the flag.
FLAGS = {
    "mu": (_parse_float, None, "eigenvalue of the qubit state, in (1/2, 1)"),
    "mu0": (_parse_float, None, "eigenvalue of the centre state, in (1/2, 1)"),
    "u": (_parse_triple, None, "local parameter ux,uy,uz"),
    "n": (_parse_int, None, "number of qubits"),
    "n_list": (_list_of(_parse_int), None, "comma-separated numbers of qubits"),
    "eps": (_parse_float, None, "localization exponent"),
    "eps_list": (_list_of(_parse_float), None, "comma-separated localization exponents"),
    "eta": (_parse_float, None, "truncation exponent: local components above 3 n^eta are cut"),
    "kappa": (_parse_float, None, "stage 1 measures ceil(n^(1 - kappa)) qubits"),
    "seed": (_parse_int, None, "random seed"),
    "truncate": (_parse_bool, None, "disable the 3 n^eta truncation (calibration runs)"),
    "loss": (str, ("trace", "fidelity", "local"), "loss function"),
    "sampler": (str, ("gaussian", "exact"), "stage-2 sampler"),
    "trials": (_parse_int, None, "Monte Carlo trials"),
    "t": (_parse_float, None, "evolution time"),
    "collisions": (_parse_int, None, "collisions of the discretized field"),
}


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
    ``totals`` value) or as the JSON document of :func:`json_report`."""
    if fmt == "json":
        text = json_report(config, rows, **totals)
    else:
        lines = [",".join(cols)]
        lines += [",".join(_csv_cell(r.get(c, totals.get(c))) for c in cols) for r in rows]
        text = "\n".join(lines)
    _emit(text + "\n", out)


def _estimator(spec: dict) -> EstimatorConfig:
    """The estimator with the settings a subcommand lists, defaults elsewhere."""
    fields = EstimatorConfig.__dataclass_fields__
    return EstimatorConfig(**{k: v for k, v in spec.items() if k in fields})


def cmd_lan_dist(spec: dict) -> int:
    result = convergence_sweep(spec["mu"], spec["u"], spec["n_list"])
    _emit_rows(
        [dataclasses.asdict(r) for r in result.rows],
        ("n", "dist_T", "dist_S", "slope_T", "slope_S"),
        {k: spec[k] for k in ("mu", "u", "n_list")},
        spec["format"],
        spec["out"],
        slope_T=result.slope_T,
        slope_S=result.slope_S,
    )
    return 0


def cmd_risk(spec: dict) -> int:
    cfg = RiskConfig(
        mu0=spec["mu0"],
        loss=spec["loss"],
        n_list=tuple(spec["n_list"]),
        trials=spec["trials"],
        seed=spec["seed"],
        estimator=_estimator(spec),
    )
    report = local_sup_risk(cfg)
    _emit_rows(
        report.rows,
        ("n", "label", "ux", "uy", "uz", "mean", "stderr", "trials",
         "failures", "truncated", "clamped"),
        report.config,
        spec["format"],
        spec["out"],
        sup=report.sup,
        reference=report.reference,
        argmax=report.argmax,
    )
    return 0


def cmd_qsde_check(spec: dict) -> int:
    if spec["collisions"] < 2:
        raise ValueError(
            f"--collisions {spec['collisions']}: the Richardson step also runs half as many "
            "collisions, so at least 2 are needed"
        )
    if not 0.0 < spec["eps"] <= 0.25:
        raise ValueError(
            f"--eps {spec['eps']:g}: the bound holds on the window |j - j_n| <= n^(1/2+eps) "
            "only for 0 < eps <= 1/4"
        )
    for n in spec["n_list"]:
        if n < 2:
            raise ValueError(f"n = {n} in --n-list: the m = 2 probe needs a spin j >= 1, so n >= 2")
    # Probe the edge of the bound's window, the spin of n qubits nearest j_n +
    # n^(1/2+eps): there the |j - j_n|/n term dominates the closed-form error,
    # which scales as the bound (a factor 2^(1 - 2 eps) per quadrupling of n).
    # One run from levels 1 and 2 serves both probes: sector m reads level m only.
    rows, deficits = {1: [], 2: []}, {1: [], 2: []}
    for n in spec["n_list"]:
        params = ModelParams(spec["mu"], int(n))
        half = (n % 2) / 2.0
        j = min(half + round(params.j_n + float(n) ** (0.5 + spec["eps"]) - half), n / 2.0)
        waves = [
            collision_integrate(params, j, (0, 1, 1), spec["t"], k)
            for k in (spec["collisions"], spec["collisions"] // 2)
        ]
        for m in (1, 2):
            ov_full, ov_half = (xi_overlap(w, xi_state(params, j, m, spec["t"])) for w in waves)
            # Richardson in 1/K removes the leading discretization error; it can
            # overshoot 1, so it is clamped and the deficit floored at 1e-16
            ov_rich = 2.0 * ov_full - ov_half
            ov = min(ov_rich, 1.0)
            deficits[m].append(math.sqrt(2.0 * max(1.0 - ov, 1e-16)))
            rows[m].append(
                {
                    "n": int(n),
                    "j": float(j),
                    "m": m,
                    "t": spec["t"],
                    "overlap": ov,
                    "overlap_richardson": ov_rich,
                    "bound": xi_error_bound(params, j, m, spec["eps"]),
                    "richardson_delta": ov_full - ov_half,
                    "norm_drift": max(abs(math.sqrt(w.sector_norms_sq[m]) - 1.0) for w in waves),
                }
            )
    for m in rows:
        slope = loglog_slope(spec["n_list"], deficits[m])
        for row in rows[m]:
            row["slope"] = slope
    _emit_rows(
        rows[1] + rows[2],
        ("n", "j", "m", "t", "overlap", "bound", "slope", "richardson_delta", "norm_drift"),
        {k: spec[k] for k in ("mu", "n_list", "t", "collisions", "eps")},
        spec["format"],
        spec["out"],
    )
    return 0


def cmd_estimate(spec: dict) -> int:
    n = int(spec["n"])
    if n < 1:
        raise ValueError(f"--n {n}: the number of qubits must be at least 1")
    rho_true = local_qubit_state(
        spec["mu0"], tuple(c / math.sqrt(n) for c in spec["u"])
    )
    res = full_estimate(rho_true, n, _estimator(spec), seeded_rng(spec["seed"]))
    mu_tilde = float(res.stage1.mu_tilde[0])
    if not 0.5 < mu_tilde < 1.0:
        raise OutsideModelError(f"stage-1 eigenvalue estimate mu_tilde = {mu_tilde} degenerate")
    if res.outside[0]:
        raise OutsideModelError(
            f"rotated state too close to maximally mixed: mu - 1/2 = "
            f"{res.mu_true - 0.5:.4f} < margin {MODEL_MARGIN}; outside the model"
            if res.mu_true - 0.5 < MODEL_MARGIN
            else f"true state is pure to rounding: 1 - mu = {1.0 - res.mu_true:.3g}, and its "
            "shifted eigenvalue is not below 1; outside the model"
        )
    u_true, u_hat = res.u_true_local[:, 0], res.u_hat[:, 0]
    r_true, r_hat = res.r_true_frame[:, 0], res.r_hat_frame[:, 0]  # the losses' stage-1 frame
    payload = {
        "config": {
            k: spec[k]
            for k in ("mu0", "u", "n", "sampler", "eps", "eta", "kappa", "seed")
        },
        "stage1": {
            "n_tilde": res.stage1.n_tilde,
            "r_raw": res.stage1.r_raw[:, 0].tolist(),
            "mu_tilde": mu_tilde,
        },
        "u_true_local": u_true.tolist(),
        "u_raw": res.u_raw[:, 0].tolist(),
        "u_hat": u_hat.tolist(),
        "truncated": res.trunc_flags[:, 0].tolist(),
        "rho_hat": {
            "bloch": res.r_hat[:, 0].tolist(),
        },
        "loss": {
            "trace_sq": float(loss_trace_sq(r_true, r_hat)),
            "fidelity": float(loss_fidelity(r_true, r_hat, res.mu_true, res.lam_hat[0])),
            "local": float(loss_local(u_true, u_hat, res.mu_true)),
        },
    }
    _emit(json.dumps(payload, indent=2) + "\n", spec["out"])
    return 0


def cmd_hoeffding(spec: dict) -> int:
    rows = hoeffding_check(
        spec["n_list"], spec["eps_list"], spec["kappa"], spec["trials"], seeded_rng(spec["seed"]),
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


# Per subcommand: handler, help, output formats (the first is the default),
# shortcuts (a shortcut ``x`` sets ``x_list`` to a one-element list) and the
# default of every setting it takes.
COMMANDS = {
    "lan-dist": (cmd_lan_dist, "block data vs Gaussian limit distances", ("csv", "json"), (), {
        "mu": 0.8, "u": (1.0, 1.0, 1.0), "n_list": (20, 50, 100, 200, 400),
    }),
    "risk": (cmd_risk, "Monte Carlo local sup-risk benchmark", ("json", "csv"), ("n",), {
        "mu0": 0.75, "loss": "trace", "n_list": (10**6,), "trials": 10_000, "sampler": "gaussian",
        "eps": 0.05, "eta": 0.08, "kappa": 0.05, "seed": 20260801, "truncate": True,
    }),
    "qsde-check": (cmd_qsde_check, "collision model vs closed-form xi", ("csv", "json"), (), {
        "mu": 0.75, "n_list": (1000, 4000, 16_000), "t": 5.0, "collisions": 400, "eps": 0.25,
    }),
    "estimate": (cmd_estimate, "single two-stage estimation run", ("json",), (), {
        "mu0": 0.75, "u": (0.0, 0.0, 0.0), "n": 10_000, "sampler": "gaussian", "eps": 0.05,
        "eta": 0.08, "kappa": 0.05, "seed": 20260801,
    }),
    "hoeffding": (cmd_hoeffding, "stage-1 large-deviation check", ("csv", "json"), ("eps",), {
        "mu0": 0.75, "n_list": (1000, 10_000, 100_000), "eps_list": (0.1, 0.2), "kappa": 0.1,
        "trials": 10_000, "seed": 20260801,
    }),
}


def _options(command: str) -> dict:
    """Every option of ``command`` by name: (setting, type, choices, help)."""
    _, _, formats, shortcuts, defaults = COMMANDS[command]
    opts = {key: (key, *FLAGS[key]) for key in defaults}
    for key in shortcuts:
        parse, choices, text = FLAGS[key]
        one = lambda value, parse=parse: (parse(value),)
        opts[key] = (f"{key}_list", one, choices, f"{text}: one-element --{key}-list")
    opts["format"] = ("format", str, formats, f"output format (default: {formats[0]})")
    opts["out"] = ("out", str, None, "output file (default: stdout)")
    return opts


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qlan",
        description="Qubit state estimation through its Gaussian limit: "
        "convergence checks, dynamics validation, and risk benchmarks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (_, summary, _, shortcuts, _) in COMMANDS.items():
        # absent flags stay out of the namespace, so a file value can fill them
        p = sub.add_parser(command, help=summary, argument_default=argparse.SUPPRESS)
        p.add_argument("--config", help="key=value file; flags take precedence")
        groups = {f"{key}_list": p.add_mutually_exclusive_group() for key in shortcuts}
        for key, (dest, parse, choices, text) in _options(command).items():
            flag = "--" + key.replace("_", "-")
            kind = {"type": parse, "choices": choices, "metavar": None if choices else key.upper()}
            if parse is _parse_bool:
                flag, kind = f"--no-{key}", {"action": "store_const", "const": False}
            groups.get(dest, p).add_argument(flag, dest=dest, help=text, **kind)
    return parser


def _read_config(path: str, options: dict) -> dict:
    """Settings from ``key = value`` lines (``#`` comments).  A key is an option
    name (``n-list`` or ``n_list``), its value passes the option's type and
    choices, and no setting may be given twice."""
    out, given = {}, {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            where = f"{path}:{lineno}"
            if "=" not in line:
                raise ValueError(f"{where}: expected key=value, got {line!r}")
            key, text = (part.strip() for part in line.split("=", 1))
            option = options.get(key.replace("-", "_"))
            if option is None:
                raise ValueError(f"{where}: unknown key {key!r}")
            dest, parse, choices, _ = option
            if dest in given:
                raise ValueError(f"{where}: {key!r} sets {dest}, already set by {given[dest]!r}")
            try:
                value = parse(text)
            except (ValueError, argparse.ArgumentTypeError) as exc:
                raise ValueError(f"{where}: {key} = {text!r}: {exc}") from None
            if choices is not None and value not in choices:
                raise ValueError(f"{where}: {key} = {text!r}: expected one of {', '.join(choices)}")
            out[dest], given[dest] = value, key
    return out


def main(argv=None) -> int:
    flags = vars(build_parser().parse_args(argv))
    command = flags.pop("command")
    handler, _, formats, _, defaults = COMMANDS[command]
    try:
        # flag > config file > default
        spec = {**defaults, "format": formats[0], "out": None}
        if "config" in flags:
            spec.update(_read_config(flags.pop("config"), _options(command)))
        spec.update(flags)
        for name in {"mu", "mu0"} & spec.keys():
            if not 0.5 < spec[name] < 1.0:
                raise ValueError(
                    f"--{name} {spec[name]}: the model requires the larger eigenvalue {name} "
                    f"to lie strictly between 1/2 and 1 ({name} > 1/2)"
                )
        return handler(spec)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # runtime failure
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
