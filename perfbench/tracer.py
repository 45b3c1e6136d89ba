"""Per-layer tracing from outside the library.

:class:`Tracer` replaces the public functions of each qlan layer with
wrappers that record a span (name, start, end, parent, pass) around every
call.  Modules bind names with ``from .x import y``, so a wrapper is
installed under every name, in every ``qlan`` module, that is bound to the
original function; methods are patched on their class.  Spans stay in
memory; :meth:`Tracer.pass_metrics` derives self time, call counts and the
work counts read from returned objects.  ``uninstall`` restores every
original binding.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict
from contextlib import contextmanager

import numpy as np

# Leading-order real flop count of an eigenvalues-only complex Hermitian
# solve (tridiagonal reduction, 16/3 d^3); the tridiagonal QR is O(d^2).
HERMITIAN_EIGVALS_FLOPS = 16.0 / 3.0

SPAN_STATS = ("self_s", "calls", "total_s")


def _set_max(counts: dict, key: str, value: float) -> None:
    counts[key] = max(counts.get(key, 0.0), float(value))


def _observe_apply_T(counts, result, args, kwargs):
    _set_max(counts, "lan_channels.apply_T.dropped_mass_max", result.dropped_mass)


def _observe_hybrid_distance(counts, result, args, kwargs):
    # one eigvalsh per classical grid point, at the shared Fock cutoff
    a = args[0]
    eigs = len(a.classical.x)
    prefix = "lan_channels.hybrid_trace_distance"
    counts[f"{prefix}.eig_count"] += eigs
    _set_max(counts, f"{prefix}.eig_dim_max", a.dim)
    counts[f"{prefix}.gflop_computed"] += eigs * HERMITIAN_EIGVALS_FLOPS * a.dim**3 / 1e9


def _observe_apply_S(counts, result, args, kwargs):
    if len(result.leaked):
        _set_max(counts, "lan_channels.apply_S.leaked_max", np.max(result.leaked))


def _observe_block_state(counts, result, args, kwargs):
    _set_max(counts, "spin_blocks.block_state.dim_max", result.shape[0])


def _observe_sampler_init(counts, result, args, kwargs):
    counts["heterodyne.acceptance_sum"] += 1.0 / args[0].m_const


def _observe_sampler_sample(counts, result, args, kwargs):
    size = kwargs.get("size", args[2] if len(args) > 2 else None)
    counts["fock_gaussian.HeterodyneSampler.sample.draws"] += 1 if size is None else int(size)


def _observe_pointwise_risk(counts, result, args, kwargs):
    config = kwargs.get("config", args[2] if len(args) > 2 else None)
    diag = result[2]
    counts["pointwise_risk.trials"] += config.trials
    for key in ("failures", "truncated", "clamped"):
        counts[f"pointwise_risk.{key}"] += diag[key]


def _observe_collision(counts, result, args, kwargs):
    nbytes = sum(
        np.asarray(arr).nbytes for comps in result.sectors.values() for arr in comps.values()
    )
    _set_max(counts, "qsde.collision_integrate.state_mb", nbytes / 2**20)


# (module, function, observer) for every wrapped function
FUNCTIONS = [
    ("lan_channels", "apply_T", _observe_apply_T),
    ("lan_channels", "gaussian_limit", None),
    ("lan_channels", "hybrid_trace_distance", _observe_hybrid_distance),
    ("lan_channels", "apply_S", _observe_apply_S),
    ("lan_channels", "blockwise_distance", None),
    ("spin_blocks", "block_state", _observe_block_state),
    ("spin_blocks", "sample_block_index", None),
    ("spin_blocks", "block_pmf_window", None),
    ("fock_gaussian", "displaced_thermal", None),
    ("estimator", "full_estimate", None),
    ("estimator", "stage1", None),
    ("estimator", "localize_frame", None),
    ("estimator", "stage2_sample", None),
    ("estimator", "truncate_estimate", None),
    ("estimator", "reconstruct", None),
    ("operator_core", "validate_density", None),
    ("operator_core", "trace_norm_distance", None),
    ("operator_core", "qubit_fidelity_sq", None),
    ("risk_bench", "local_sup_risk", None),
    ("risk_bench", "pointwise_risk", _observe_pointwise_risk),
    ("qsde", "collision_integrate", _observe_collision),
    ("qsde", "xi_overlap", None),
]

# (module, class, method, span suffix, observer) for every wrapped method
METHODS = [
    ("fock_gaussian", "HeterodyneSampler", "__init__", "init", _observe_sampler_init),
    ("fock_gaussian", "HeterodyneSampler", "sample", "sample", _observe_sampler_sample),
]


class Tracer:
    """Span recorder; one instance per traced run, used from one thread.

    ``spans`` holds ``[name, start, end, parent_index, pass_id]`` lists in
    call order; ``counts[pass_id]`` the work counts observed in that pass.
    """

    def __init__(self):
        self.spans: list = []
        self.counts: dict = defaultdict(lambda: defaultdict(float))
        self._stack: list = []
        self._pass_id = -1
        self._restore: list = []

    @contextmanager
    def pass_span(self, pass_id: int):
        """Root span of one workload pass; every span inside it shares its id."""
        self._pass_id = pass_id
        idx = self._open("pass")
        try:
            yield
        finally:
            self._close(idx)

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent, self._pass_id])
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def _close(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    def _wrap(self, fn, name: str, observe):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if observe is not None:
                observe(self.counts[self._pass_id], result, args, kwargs)
            return result

        return wrapper

    def _patch(self, owner, attr: str, value) -> None:
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        """Wrap every traced function wherever qlan binds it."""
        modules = [m for k, m in sys.modules.items() if k == "qlan" or k.startswith("qlan.")]
        for mod_name, fn_name, observe in FUNCTIONS:
            orig = getattr(sys.modules[f"qlan.{mod_name}"], fn_name)
            wrapper = self._wrap(orig, f"{mod_name}.{fn_name}", observe)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is orig:
                        self._patch(mod, attr, wrapper)
        for mod_name, cls_name, meth, suffix, observe in METHODS:
            cls = getattr(sys.modules[f"qlan.{mod_name}"], cls_name)
            name = f"{mod_name}.{cls_name}.{suffix}"
            self._patch(cls, meth, self._wrap(vars(cls)[meth], name, observe))

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, value = self._restore.pop()
            setattr(owner, attr, value)

    @contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    def pass_metrics(self, pass_id: int, names) -> dict:
        """The metrics ``names`` (``<module>.<function>.<stat>``) of one pass;
        a span that did not run reads 0."""
        child_time: dict = defaultdict(float)
        for name, start, end, parent, pid in self.spans:
            if pid == pass_id and parent >= 0:
                child_time[parent] += end - start
        stats: dict = defaultdict(lambda: dict.fromkeys(SPAN_STATS, 0.0))
        for idx, (name, start, end, parent, pid) in enumerate(self.spans):
            if pid != pass_id:
                continue
            s = stats[name]
            s["calls"] += 1
            s["total_s"] += end - start
            s["self_s"] += end - start - child_time[idx]
        counts = dict(self.counts[pass_id])
        inits = stats["fock_gaussian.HeterodyneSampler.init"]["calls"]
        counts["fock_gaussian.heterodyne.expected_acceptance"] = (
            counts.get("heterodyne.acceptance_sum", 0.0) / inits if inits else 0.0
        )
        trials = counts.get("pointwise_risk.trials", 0.0)
        for key, share in (
            ("failures", "outside_share"),
            ("truncated", "truncated_share"),
            ("clamped", "clamped_share"),
        ):
            counts[f"risk_bench.pointwise_risk.{share}"] = (
                counts.get(f"pointwise_risk.{key}", 0.0) / trials if trials else 0.0
            )
        out = {}
        for metric in names:
            span, _, stat = metric.rpartition(".")
            if stat in SPAN_STATS:
                out[metric] = stats[span][stat] if span in stats else 0.0
            else:
                out[metric] = counts.get(metric, 0.0)
        return out

    def span_records(self) -> list:
        return [
            {"name": n, "start": s, "end": e, "parent": p, "pass": pid}
            for n, s, e, p, pid in self.spans
        ]
