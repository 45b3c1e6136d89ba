"""qlan benchmark: run one workload, check its outputs, print its metrics.

    python3 perfbench/run.py --workload risk-gaussian --seed 7 --seconds 25 --trace 0
    python3 perfbench/run.py --seed 7      # all four workloads, one table

A run is a closed loop, one client, one pass at a time.  It repeats a step
until the next one would end past ``--seconds`` (at least three steps).
With ``--trace 0`` a step is one pass and one set-up probe, so that both
sample the whole run; with ``--trace 1`` it is one untraced and one traced
pass.  Every pass is checked against its workload's correctness gates.

``--trace 0`` reports the end-to-end metrics: ``setup_s`` (median over
the probes, each a fresh interpreter, of start-up to qlan imported and
inputs built), ``wall_s`` (median pass time) and ``peak_rss_mb`` (peak
resident memory of this process).  ``--trace 1`` reports the per-layer
metrics, each the median over the traced passes, and ``trace.overhead_s``
(traced minus untraced median pass).  The metric names and units are
those of ``BENCHMARK.json``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; ``attempted`` and
``failed`` count the pass's operations (trials or rows), and a pass that
raises or misses a gate counts all of its operations as failed.  Each run
also writes ``perfbench/out/<workload>-seed<seed>-trace<t>.json`` with the
run environment, every pass and, for traced runs, every span.  When qlan
cannot be imported the command prints no result and exits with code 2.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import nullcontext
from pathlib import Path

import bootstrap

BENCH_DIR = Path(__file__).resolve().parent
OUT_DIR = BENCH_DIR / "out"
SPEC = json.loads((bootstrap.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOAD_NAMES = tuple(w["name"] for w in SPEC["workloads"])
UNITS = {m["name"]: m["unit"] for m in SPEC["end_to_end"] + SPEC["per_layer"]}
MIN_STEPS = 3
SETUP_TIMEOUT_S = 120


def parse_args(argv=None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", default="all", choices=WORKLOAD_NAMES + ("all",))
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--seconds", type=float, default=float(SPEC["run_seconds"]))
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def upper_percentile(values: list) -> tuple:
    """(q, value) for the highest of p75/p90/p95/p99 with at least ten
    samples above it, or (None, None) when there are too few samples."""
    for q in (99, 95, 90, 75):
        if len(values) * (1.0 - q / 100.0) >= 10:
            return q, statistics.quantiles(values, n=100)[q - 1]
    return None, None


def measure_setup(name: str, seed: int) -> float:
    """Seconds from spawning a fresh interpreter to it reporting qlan
    imported and the workload's inputs built."""
    cmd = [sys.executable, str(BENCH_DIR / "run.py"), "--setup-probe"]
    cmd += ["--workload", name, "--seed", str(seed)]
    t0 = time.perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as proc:
        try:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - t0
            proc.wait(timeout=SETUP_TIMEOUT_S)
        except BaseException:
            proc.kill()
            raise
    if proc.returncode != 0 or line.strip() != "ready":
        raise RuntimeError(f"set-up probe exited with {proc.returncode}, said {line!r}")
    return elapsed


def run_pass(wl, inputs, first, tracer=None, pass_id: int = 0) -> dict:
    """One timed pass and its gates; ``first`` is the output of the run's
    first pass (None for that pass itself).  The record keeps the output."""
    ctx = tracer.pass_span(pass_id) if tracer is not None else nullcontext()
    t0 = time.perf_counter()
    try:
        with ctx:
            output = wl.run(inputs)
        wall = time.perf_counter() - t0
        failures = wl.gate(inputs, output, first)
    except Exception:  # a failed pass is reported, and the run goes on
        wall = time.perf_counter() - t0
        output = None
        failures = [traceback.format_exc()]
    for msg in failures:
        print(f"{wl.name}: pass failed: {msg}", file=sys.stderr)
    return {"wall_s": wall, "ok": not failures, "failures": failures, "output": output}


def repeat(step, budget_s: float, min_steps: int) -> None:
    """Call ``step()`` at least ``min_steps`` times, then while the next
    call, at the median step time, would end within ``budget_s``."""
    durations = []
    start = time.perf_counter()
    while len(durations) < min_steps or (
        time.perf_counter() - start + statistics.median(durations) <= budget_s
    ):
        t0 = time.perf_counter()
        step()
        durations.append(time.perf_counter() - t0)


def environment(seed: int, trapz_guard: bool) -> dict:
    import numpy as np
    import scipy

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {k: blas.get(k) for k in ("name", "version", "openblas configuration")}
    except (KeyError, TypeError, ValueError):
        blas = None
    src_lines = sum(
        len(f.read_text(encoding="utf-8").splitlines())
        for f in sorted((bootstrap.SRC / "qlan").glob("*.py"))
    )
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu_model(),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "blas_threads": {v: os.environ.get(v) for v in bootstrap.THREAD_VARS},
        "numpy_trapz_guard": trapz_guard,
        "git_commit": git_commit(),
        "seed": seed,
        "src_qlan_lines": src_lines,
    }


def cpu_model() -> str | None:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return None


def git_commit() -> str | None:
    """HEAD of the checkout, or None when it is not a git repository; git
    does not look above the checkout for one."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(bootstrap.ROOT.parent))
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=bootstrap.ROOT,
            env=env,
            capture_output=True,
            text=True,
            check=False,
        )
    except OSError:
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def run_one(args, trapz_guard: bool) -> dict:
    import workloads

    wl = workloads.WORKLOADS[args.workload]
    inputs = wl.build(args.seed, False)
    work = wl.work(inputs)
    # untimed warm-up on the tiny inputs: lazy imports and first-call set-up
    try:
        wl.run(wl.build(args.seed, True))
    except Exception:  # the timed passes report the failure
        traceback.print_exc()
    result = {"workload": wl.name, "unit_of_work": wl.unit_of_work, "work_per_pass": work}
    if args.trace:
        import tracer as tracing

        tr = tracing.Tracer()
    else:
        tr = None
    plain, traced, setup = [], [], []

    def step():
        # the untraced passes alternate with the set-up probes or the traced
        # passes, so that both sample the same stretches of machine speed
        first = plain[0]["output"] if plain else None
        plain.append(run_pass(wl, inputs, first))
        if tr is None:
            setup.append(measure_setup(wl.name, args.seed))
        else:
            with tr.installed():
                traced.append(run_pass(wl, inputs, first, tr, len(traced)))

    repeat(step, args.seconds, MIN_STEPS)
    passes = plain + traced
    plain_walls = [r["wall_s"] for r in plain]
    if tr is not None:
        names = [m["name"] for m in SPEC["per_layer"] if m["name"] != "trace.overhead_s"]
        per_pass = [tr.pass_metrics(i, names) for i in range(len(traced))]
        metrics = {name: statistics.median(m[name] for m in per_pass) for name in names}
        metrics["trace.overhead_s"] = statistics.median(
            r["wall_s"] for r in traced
        ) - statistics.median(plain_walls)
        result["spans"] = tr.span_records()
    else:
        q, upper = upper_percentile(plain_walls)
        metrics = {
            "setup_s": statistics.median(setup),
            "wall_s": statistics.median(plain_walls),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        result.update(
            setup_samples_s=setup,
            wall_s_samples=len(plain_walls),
            wall_s_upper_percentile={"q": q, "value": upper},
            throughput_per_s=work / metrics["wall_s"],
        )
    failed = sum(work for r in passes if not r["ok"])
    attempted = work * len(passes)
    result.update(
        correct=all(r["ok"] for r in passes),
        attempted=attempted,
        failed=failed,
        failed_share=failed / attempted,
        metrics={k: {"value": v, "unit": UNITS[k]} for k, v in metrics.items()},
        passes=[{k: v for k, v in r.items() if k != "output"} for r in passes],
        env=environment(args.seed, trapz_guard),
        argv=sys.argv,
    )
    OUT_DIR.mkdir(exist_ok=True)
    out = OUT_DIR / f"{wl.name}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(result, indent=1) + "\n", encoding="utf-8")
    return result


def run_all(args) -> dict | None:
    """Every workload in its own child process, so that peak memory is per
    workload; prints each workload's metrics and returns the combined
    result, or None when a workload produced no result."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", name]
        cmd += ["--seed", str(args.seed), "--seconds", str(args.seconds)]
        cmd += ["--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"{name}: exited with {proc.returncode}", file=sys.stderr)
            return None
        res = json.loads(lines[-1])
        combined["correct"] &= res["correct"]
        combined["attempted"] += res["attempted"]
        combined["failed"] += res["failed"]
        print(f"{name}: correct {res['correct']}")
        for k, m in res["metrics"].items():
            print(f"  {k} {m['value']:.6g} {m['unit']}")
        print(f"  failed_share {res['failed'] / res['attempted']:.6g} share")
        if not args.trace:
            out = OUT_DIR / f"{name}-seed{args.seed}-trace0.json"
            full = json.loads(out.read_text(encoding="utf-8"))
            upper = full["wall_s_upper_percentile"]
            print(
                f"  wall_s over {full['wall_s_samples']} passes, upper percentile "
                f"{'none (too few passes)' if upper['q'] is None else upper}; "
                f"{full['work_per_pass']} {full['unit_of_work']} per pass, "
                f"{full['throughput_per_s']:.6g} {full['unit_of_work']}/s"
            )
        for k, m in res["metrics"].items():
            combined["metrics"][f"{name}.{k}"] = m
    return combined


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.workload == "all":
        result = run_all(args)
        if result is None:
            return 2
        print(json.dumps(result))
        return 0
    try:
        trapz_guard = bootstrap.load_qlan()
    except ImportError as exc:
        print(f"cannot import qlan: {exc}", file=sys.stderr)
        return 2
    if args.setup_probe:
        import workloads

        workloads.WORKLOADS[args.workload].build(args.seed, False)
        print("ready", flush=True)
        return 0
    res = run_one(args, trapz_guard)
    print(
        json.dumps({k: res[k] for k in ("correct", "attempted", "failed", "metrics")})
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
