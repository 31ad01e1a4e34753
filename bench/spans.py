"""Per-layer tracing from outside the package.

Tracer.install() replaces public names of pilotbounds at the places where
callers look them up (for example siso.expint_scaled_sum as siso sees it,
montecarlo.sample_ctr as mimo and sweeps see it, siso.capacity_csi as
sweeps sees it) with wrappers that record one span per call: name,
start, end, parent span and operation id.  Spans stay in memory in flat
arrays and are written once, at the end.  uninstall() restores every
original; a run that never calls install() has no wrapper at all.

A layer's self time is the time of its spans minus the part covered by
their child spans, so nested calls are not counted twice.
"""

from __future__ import annotations

import contextlib
import functools
import os
import re
import subprocess
import sys
import threading
import time
from array import array
from pathlib import Path

import numpy as np

LAYERS = ("expint", "params", "montecarlo", "siso", "mimo", "sweeps", "cli")

# layer -> [(module whose attribute is replaced, [public names])]
FUNCTION_SITES = {
    "expint": [
        ("expint", ["expint_scaled", "expint_scaled_sum", "eps1_array"]),
        ("siso", ["expint_scaled", "expint_scaled_sum", "eps1_array"]),
        ("mimo", ["expint_scaled_sum"]),
    ],
    "params": [("siso", ["linear_snr"]), ("mimo", ["linear_snr"]), ("montecarlo", ["linear_snr"])],
    "montecarlo": [
        ("montecarlo", ["sample_capacity_siso", "sample_penalty_term", "sample_ctr", "sample_delta_mimo"]),
    ],
    "siso": [
        ("siso", [
            "capacity_csi", "joint_bound_j1", "joint_bound_j2", "separate_bound",
            "optimize_pilots_joint", "power_advantage_at_snr", "power_advantage_asymptotic",
            "mmse_estimate_variance", "snr_effective",
        ]),
        ("mimo", ["advantage_units"]),
    ],
    "mimo": [
        ("mimo", [
            "capacity_ctr", "mimo_joint_j1", "mimo_joint_j2", "mimo_separate",
            "mimo_optimize_pilots", "pilot_gram_optimality_check",
        ]),
    ],
    "sweeps": [("sweeps", ["sweep_fig1", "sweep_fig2", "convergence_table", "validate_all"])],
    "cli": [("cli", ["main"])],
}
# layer -> [(module, class)] whose __post_init__ (argument validation) is traced
METHOD_SITES = {
    "params": [("params", "SnrValue"), ("params", "SisoParams"), ("params", "MimoParams")],
    "montecarlo": [("montecarlo", "McConfig")],
}


def _samples_used(result) -> int:
    """Draws behind a mimo result: an Estimate, or a search/report holding one."""
    for est in (result, getattr(result, "value", None), getattr(result, "uniform", None)):
        if isinstance(getattr(est, "samples_used", None), int):
            return est.samples_used
    return 0


def _count_terms(counts, name, args, kwargs, result):
    if name == "expint_scaled_sum":
        n = args[0] if args else kwargs["n"]
    elif name == "eps1_array":
        n = int(np.size(args[0] if args else kwargs["x"]))
    else:
        n = 1
    counts["expint.terms"] += n


def _count_samples(counts, name, args, kwargs, result):
    counts["montecarlo.samples"] += result.samples_used


def _count_mimo(counts, name, args, kwargs, result):
    if _samples_used(result) > 0:
        counts["mimo.sampled_calls"] += 1
    if name in ("mimo_separate", "mimo_optimize_pilots"):
        counts["mimo.searches"] += 1
        counts["mimo.ties"] += int(bool(result.tie_within_margin))


def _count_rows(counts, name, args, kwargs, result):
    counts["sweeps.rows"] += len(result.cells if name == "validate_all" else result.rows)


def _count_cli(counts, name, args, kwargs, result):
    if result != 0:
        counts["cli.exit_nonzero"] += 1
    argv = list(args[0] if args else kwargs.get("argv") or [])
    if "--out" in argv:
        path = argv[argv.index("--out") + 1]
        if os.path.exists(path):
            counts["cli.bytes_out"] += os.path.getsize(path)


COUNTERS = {
    "expint": _count_terms,
    "montecarlo": _count_samples,
    "mimo": _count_mimo,
    "sweeps": _count_rows,
    "cli": _count_cli,
}
COUNT_NAMES = (
    "expint.terms", "montecarlo.samples", "mimo.sampled_calls",
    "mimo.searches", "mimo.ties", "sweeps.rows", "cli.exit_nonzero", "cli.bytes_out",
)


class Tracer:
    """Span recorder; one instance per traced phase."""

    def __init__(self, package_modules: dict):
        self._modules = package_modules
        self._lock = threading.Lock()
        self._local = threading.local()
        self._names: list[tuple[str, str]] = []  # (layer, qualified name)
        self._ids: dict[tuple[str, str], int] = {}
        self.span_name = array("i")
        self.span_parent = array("q")
        self.span_op = array("q")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_failed = array("b")
        self.counts = dict.fromkeys(COUNT_NAMES, 0)
        self.op_id = -1
        self._saved: list[tuple[object, str, object]] = []

    # -- recording -------------------------------------------------------
    def _name_id(self, layer: str, qualname: str) -> int:
        if (layer, qualname) not in self._ids:
            self._ids[(layer, qualname)] = len(self._names)
            self._names.append((layer, qualname))
        return self._ids[(layer, qualname)]

    def _open(self, name_id: int) -> int:
        stack = self._local.__dict__.setdefault("stack", [])
        with self._lock:
            i = len(self.span_start)
            self.span_name.append(name_id)
            self.span_parent.append(stack[-1] if stack else -1)
            self.span_op.append(self.op_id)
            self.span_start.append(time.perf_counter())
            self.span_end.append(0.0)
            self.span_failed.append(0)
        stack.append(i)
        return i

    def _close(self, i: int, failed: bool) -> None:
        self.span_end[i] = time.perf_counter()
        if failed:
            self.span_failed[i] = 1
        self._local.stack.pop()

    @contextlib.contextmanager
    def span(self, layer: str, qualname: str):
        """A span opened by the benchmark itself, around one operation."""
        i = self._open(self._name_id(layer, qualname))
        try:
            yield
        except BaseException:
            self._close(i, True)
            raise
        self._close(i, False)

    def _wrap(self, layer: str, qualname: str, fn, counter):
        name_id = self._name_id(layer, qualname)
        short = qualname.rsplit(".", 1)[-1]
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            i = tracer._open(name_id)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                tracer._close(i, True)
                raise
            tracer._close(i, False)
            if counter is not None:
                counter(tracer.counts, short, args, kwargs, result)
            return result

        return wrapper

    # -- installation ----------------------------------------------------
    def _replace(self, owner, attr: str, new) -> None:
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def install(self) -> None:
        for layer, sites in FUNCTION_SITES.items():
            counter = COUNTERS.get(layer)
            for mod_name, names in sites:
                module = self._modules[mod_name]
                for name in names:
                    fn = module.__dict__[name]
                    self._replace(module, name, self._wrap(layer, f"{mod_name}.{name}", fn, counter))
        for layer, sites in METHOD_SITES.items():
            for mod_name, cls_name in sites:
                cls = getattr(self._modules[mod_name], cls_name)
                fn = cls.__dict__["__post_init__"]
                self._replace(cls, "__post_init__", self._wrap(layer, f"{cls_name}.__post_init__", fn, None))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    # -- results ---------------------------------------------------------
    def layer_totals(self) -> dict:
        """Per layer: calls, self seconds and failed calls."""
        n = len(self.span_start)
        out = {layer: {"calls": 0, "self_s": 0.0, "failed": 0} for layer in LAYERS}
        if n == 0:
            return out
        dur = np.frombuffer(self.span_end, dtype=float) - np.frombuffer(self.span_start, dtype=float)
        parent = np.frombuffer(self.span_parent, dtype=np.int64)
        has_parent = parent >= 0
        covered = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=n)
        self_time = dur - covered
        layer_of_name = np.array([self._layer_index(layer) for layer, _ in self._names])
        layer = layer_of_name[np.frombuffer(self.span_name, dtype=np.int32)]
        failed = np.frombuffer(self.span_failed, dtype=np.int8)
        m = len(LAYERS) + 1
        calls = np.bincount(layer, minlength=m)
        selfs = np.bincount(layer, weights=self_time, minlength=m)
        fails = np.bincount(layer, weights=failed, minlength=m)
        for i, name in enumerate(LAYERS):
            out[name] = {"calls": int(calls[i]), "self_s": float(selfs[i]), "failed": int(fails[i])}
        return out

    @staticmethod
    def _layer_index(layer: str) -> int:
        return LAYERS.index(layer) if layer in LAYERS else len(LAYERS)

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez_compressed(
            path,
            names=np.array([f"{layer}:{q}" for layer, q in self._names]),
            name=np.frombuffer(self.span_name, dtype=np.int32),
            parent=np.frombuffer(self.span_parent, dtype=np.int64),
            op=np.frombuffer(self.span_op, dtype=np.int64),
            start=np.frombuffer(self.span_start, dtype=float),
            end=np.frombuffer(self.span_end, dtype=float),
            failed=np.frombuffer(self.span_failed, dtype=np.int8),
        )


_IMPORTTIME = re.compile(r"^import time:\s+(\d+) \|\s+(\d+) \|( *)(\S+)\s*$")


def parse_importtime(stderr: str) -> dict:
    """Seconds each pilotbounds layer adds to `import pilotbounds.cli`.

    -X importtime prints modules in post-order with children indented
    under their importer.  A layer is charged its own module time plus
    everything it imported first that is not another pilotbounds module
    (so expint carries scipy.integrate and numpy, which it imports first).
    """
    pending: dict[int, list] = {}
    out = dict.fromkeys(LAYERS, 0.0)
    for line in stderr.splitlines():
        m = _IMPORTTIME.match(line)
        if not m:
            continue
        self_us, cum_us, depth, name = int(m[1]), int(m[2]), len(m[3]) // 2, m[4]
        children = pending.pop(depth + 1, [])
        node = (name, self_us, cum_us, children)
        pending.setdefault(depth, []).append(node)
        layer = name.split(".", 1)[1] if name.startswith("pilotbounds.") else None
        if layer in out:
            foreign = sum(c[2] for c in children if not c[0].startswith("pilotbounds"))
            out[layer] = (self_us + foreign) / 1e6
    return out


def import_times(src: Path, repeats: int) -> dict:
    """Median per-layer import seconds over fresh interpreters."""
    env = dict(os.environ, PYTHONPATH=str(src))
    runs = []
    for _ in range(repeats):
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import pilotbounds.cli"],
            env=env, capture_output=True, text=True, timeout=120, check=True,
        )
        runs.append(parse_importtime(proc.stderr))
    return {layer: float(np.median([r[layer] for r in runs])) for layer in LAYERS}
