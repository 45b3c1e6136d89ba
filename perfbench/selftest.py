"""Self-test of the benchmark harness; exits non-zero on the first failure.

    python3 perfbench/selftest.py

Checks that a tiny pass of every workload passes its gates within seconds,
that every gate rejects a deliberately wrong reference value, that the
tracer restores what it patched, and that every workload and per-layer
span ``BENCHMARK.json`` names is one the harness has.
"""

from __future__ import annotations

import dataclasses
import math
import sys
import time

import bootstrap
import run

TINY_PASS_LIMIT_S = 10.0


def check(cond: bool, what: str) -> None:
    if not cond:
        raise SystemExit(f"selftest FAILED: {what}")
    print(f"ok  {what}")


def main() -> int:
    bootstrap.load_qlan()
    import tracer as tracing
    import workloads as w
    from qlan import estimator, risk_bench

    outputs = {}
    for name in run.WORKLOAD_NAMES:
        wl = w.WORKLOADS[name]
        inputs = wl.build(7, True)
        t0 = time.perf_counter()
        outputs[name] = wl.run(inputs)
        elapsed = time.perf_counter() - t0
        check(elapsed < TINY_PASS_LIMIT_S, f"{name}: tiny pass took {elapsed:.2f} s")
        check(wl.gate(inputs, outputs[name], None) == [], f"{name}: tiny pass passes its gates")

    rg = outputs["risk-gaussian"]
    check(w.gate_risk_gaussian(rg) == [], "risk-gaussian: gate accepts the true reference")
    wrong = dataclasses.replace(rg, reference=rg.reference * 1.2)
    check(w.gate_risk_gaussian(wrong) != [], "risk-gaussian: gate rejects a reference 20% off")

    lan = outputs["lan-sweep"]
    bad = dict(w.LAN_REFERENCE)
    n0 = lan.rows[0].n
    bad[n0] = (bad[n0][0] + 1e-9, bad[n0][1])
    check(w.gate_lan_sweep(lan, reference=bad) != [], "lan-sweep: gate rejects a distance 1e-9 off")
    check(w.gate_lan_sweep(lan, slope_max=-1.0) != [], "lan-sweep: gate rejects a too-shallow slope")
    swapped = dataclasses.replace(lan, rows=lan.rows[::-1])
    check(w.gate_lan_sweep(swapped) != [], "lan-sweep: gate rejects distances rising with n")

    ex = outputs["exact-risk"]
    nan_row = dict(ex.rows[0], mean=math.nan)
    check(
        w.gate_exact_risk(dataclasses.replace(ex, rows=[nan_row]), None) != [],
        "exact-risk: gate rejects a non-finite row",
    )
    other = dataclasses.replace(ex, sup=ex.sup + 1e-12)
    check(w.gate_exact_risk(ex, other) != [], "exact-risk: gate rejects a report that differs")

    qs = outputs["qsde-check"]
    bad = dict(w.QSDE_REFERENCE)
    key = (1000, 1)
    bad[key] = (bad[key][0], bad[key][1] + 1e-8, bad[key][2])
    check(w.gate_qsde_check(qs, reference=bad) != [], "qsde-check: gate rejects an overlap 1e-8 off")
    over = [dict(r, overlap=1.5) if r["m"] == 2 else r for r in qs]
    check(w.gate_qsde_check(over) != [], "qsde-check: gate rejects an overlap above 1")
    falling = [dict(r, overlap=1.0 / r["n"]) for r in qs]
    check(w.gate_qsde_check(falling) != [], "qsde-check: gate rejects overlaps falling with n")

    originals = (risk_bench.full_estimate, estimator.HeterodyneSampler.__init__)
    tr = tracing.Tracer()
    with tr.installed():
        check(risk_bench.full_estimate is not originals[0], "tracer: wrapper installed")
        with tr.pass_span(0):
            w.WORKLOADS["exact-risk"].run(w.WORKLOADS["exact-risk"].build(7, True))
    check(
        (risk_bench.full_estimate, estimator.HeterodyneSampler.__init__) == originals,
        "tracer: originals restored",
    )
    metrics = tr.pass_metrics(0, [m["name"] for m in run.SPEC["per_layer"]])
    check(metrics["estimator.full_estimate.calls"] == 2, "tracer: two full_estimate calls")
    check(metrics["fock_gaussian.HeterodyneSampler.init.calls"] == 2, "tracer: two samplers")
    check(
        0.0 < metrics["fock_gaussian.heterodyne.expected_acceptance"] <= 1.0,
        "tracer: expected acceptance in (0, 1]",
    )
    check(
        all(v >= 0.0 for k, v in metrics.items() if k.endswith(".self_s")),
        "tracer: self times are non-negative",
    )

    check(set(w.WORKLOADS) == set(run.WORKLOAD_NAMES), "BENCHMARK.json names the harness's workloads")
    wrapped = {f"{m}.{f}" for m, f, _ in tracing.FUNCTIONS}
    wrapped |= {f"{m}.{c}.{suffix}" for m, c, _, suffix, _ in tracing.METHODS}
    spans = {
        span
        for span, _, stat in (m["name"].rpartition(".") for m in run.SPEC["per_layer"])
        if stat in tracing.SPAN_STATS
    }
    check(spans <= wrapped, f"every per-layer span is wrapped: {sorted(spans - wrapped)}")
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
