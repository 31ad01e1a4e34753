"""pilotbounds benchmark: one workload, one seed, one JSON line.

    python3 bench/run.py --workload siso_closed_form --seed 1 --seconds 20 --trace 0

Runs the package from src/ of the checkout this file sits in (there is
nothing to build) and exits 2 without a result if that is missing.

--trace 0 measures the end-to-end metrics with no wrapper installed:
  setup_s         median CPU time, over fresh interpreters, from process
                  start until `import pilotbounds.cli` completes
  ops_per_cpu_s   completed operations per CPU-second of the operations
  cpu_p50_ms      median CPU time of one operation
  cpu_p90_ms      90th percentile CPU time (a run holds >= 100 operations)
  ok_frac         operations that returned and passed their output check,
                  divided by operations attempted (1 - failed fraction)
  peak_rss_mb     ru_maxrss of the benchmark process, with malloc's
                  settings fixed (see fix_malloc)
CPU time is that of the whole process, every thread, as time.process_time
counts it; it leaves out time the host's hypervisor takes from the guest,
which on small shared machines swings wall-clock rates by half between
runs.  The wall-clock rate and latencies are printed on a line of their
own before the result.
--trace 1 runs the same rounds twice, untraced and then traced, and
reports per-layer metrics from the traced pass plus the tracing overhead;
then, untimed, it runs every known defect (below) once.

The last line of stdout is {"correct", "attempted", "failed", "metrics"}.
"attempted" and "failed" count the measured operations, and "correct" is
false when any of them fails its check.  The measured operations never
draw a known defect: known_defects.json names each SISO grid point whose
output fails its check today, exactly, as (op kind, arguments, reason).
The traced run then runs every listed point once, untimed (about 5 s,
most of it in mpmath references for pilot counts outside refs.json); the
lines before its result say how many still fail and how many now pass,
and a listed point that fails for another reason than the one recorded
makes "correct" false as well.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import warnings
from collections import Counter
from pathlib import Path
from typing import NamedTuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
WORKLOADS = ("siso_closed_form", "mimo_sampled", "cli_reports")
# A start takes about 0.9 CPU-seconds; the median of eleven is not moved
# by a few slow ones.
SETUP_REPEATS = 11
IMPORTTIME_REPEATS = 3
MIN_OPS = 100
# Four rounds hold every pairing of the workloads' Latin rotation once, so
# even a slow run measures the full operation mix.
MIN_ROUNDS = 4
# A round still running this long after the deadline is cut short, so a
# run always ends well inside its time limit.
OVERRUN_S = 45.0
# mallopt parameter numbers in glibc's malloc.h
M_TRIM_THRESHOLD, M_MMAP_THRESHOLD, M_ARENA_MAX = -1, -3, -8


class Phase(NamedTuple):
    records: list  # (Op, output) pairs in the order they ran
    latencies: list  # wall-clock seconds per op
    cpu: list  # CPU seconds per op, all threads
    wall: float
    rounds: int


def fix_malloc() -> None:
    """Give glibc's malloc fixed settings: one arena for every thread, no
    trimming of the heap, and a fixed 32 MB threshold for mmap.

    With the defaults each worker thread gets an arena of its own and the
    mmap threshold moves with the sizes freed, so the peak RSS of the same
    mimo_sampled operations read anywhere from 181 to 231 MB in eight runs
    on a 2-vCPU Xeon; with these settings, 178 to 183 MB in 14 runs of 20
    and 158 to 165 MB in the other six.  One arena alone made validate 30%
    slower; with trimming off as well, validate and the mimo operations
    ran as fast as with the defaults.  Without glibc this does nothing.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError):
        return
    mallopt(M_ARENA_MAX, 1)
    mallopt(M_TRIM_THRESHOLD, 1 << 30)
    mallopt(M_MMAP_THRESHOLD, 32 << 20)


def measure_setup(repeats: int) -> float:
    """Median CPU seconds from interpreter start to `import pilotbounds.cli` done.

    The children inherit the caller's environment: the first, unmeasured
    start writes the bytecode cache unless PYTHONDONTWRITEBYTECODE is set,
    in which case every start also compiles the package (about 50 ms).
    """
    env = dict(os.environ, PYTHONPATH=str(SRC))
    code = "import time, pilotbounds.cli; print(repr(time.process_time()))"
    samples = []
    for i in range(repeats + 1):
        proc = subprocess.run(
            [sys.executable, "-c", code], env=env, cwd=ROOT,
            capture_output=True, text=True, timeout=120, check=True,
        )
        if i:
            samples.append(float(proc.stdout.split()[-1]))
    return statistics.median(samples)


def run_phase(wl, seed: int, seconds: float, rounds: int | None = None, tracer=None) -> Phase:
    """Closed loop, one client: whole rounds until `seconds` have passed
    and MIN_ROUNDS rounds and MIN_OPS ops are done, or exactly `rounds`
    rounds when given."""
    from workloads import Raised

    records, latencies, cpu = [], [], []
    start = time.perf_counter()
    deadline = start + seconds
    r = 0

    def more() -> bool:
        if rounds is not None:
            return r < rounds
        now = time.perf_counter()
        if now > deadline + OVERRUN_S:
            return False
        return now < deadline or r < MIN_ROUNDS or len(records) < MIN_OPS

    while more():
        for op in wl.round(seed, r):
            if tracer is not None:
                tracer.op_id = len(records)
            t0, c0 = time.perf_counter(), time.process_time()
            try:
                if tracer is None:
                    raw = wl.execute(op)
                else:
                    with tracer.span("bench", op.kind):
                        raw = wl.execute(op)
            except Exception as exc:  # an op that raises is a failed op, not a failed run
                raw = Raised(type(exc).__name__, str(exc)[:200])
            cpu.append(time.process_time() - c0)
            latencies.append(time.perf_counter() - t0)
            records.append((op, raw if isinstance(raw, Raised) else wl.collect(op, raw)))
            if rounds is None and time.perf_counter() > deadline + OVERRUN_S:
                break
        r += 1
    return Phase(records, latencies, cpu, time.perf_counter() - start, r)


def load_known(path: Path, workload: str) -> set:
    """The known failures of `workload` as a set of (kind, args, reason)."""
    doc = json.loads(path.read_text())
    if doc["workload"] != workload:
        return set()
    return {(kind, tuple(args), reason) for kind, args, reason in doc["failures"]}


def check_records(wl, records, refs, known: set) -> tuple[list, list]:
    """(failures, unexpected failures); each failure is (op, reason)."""
    failures = [(op, reason) for op, out in records if (reason := wl.check(op, out, refs))]
    unexpected = [(op, reason) for op, reason in failures if (op.kind, op.args, reason) not in known]
    return failures, unexpected


def probe_known(wl, refs, known: set) -> tuple[list, list]:
    """Run every known-defect point once: (failures, unexpected)."""
    from workloads import Op, Raised

    records = []
    with warnings.catch_warnings():  # the defects' overflows and divisions by zero
        warnings.simplefilter("ignore", RuntimeWarning)
        for kind, args, _ in sorted(known):
            op = Op(kind, args)
            try:
                out = wl.collect(op, wl.execute(op))
            except Exception as exc:  # raising is the recorded defect of some points
                out = Raised(type(exc).__name__, str(exc)[:200])
            records.append((op, out))
    return check_records(wl, records, refs, known)


def print_failures(label: str, failures, unexpected) -> None:
    counts = Counter((op.kind, reason) for op, reason in failures)
    bad = Counter((op.kind, reason) for op, reason in unexpected)
    for (kind, reason), n in sorted(counts.items()):
        status = f"{bad[(kind, reason)]} UNEXPECTED" if bad[(kind, reason)] else "as recorded"
        print(f"{label}: {kind} {reason} x{n} ({status})")
    for op, reason in unexpected[:20]:
        print(f"unexpected: {op.kind}{op.args} {reason}")


def metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def p50_p90_ms(seconds: list) -> tuple[float, float]:
    ms = [t * 1e3 for t in seconds]
    return statistics.median(ms), statistics.quantiles(ms, n=10)[-1]


def end_to_end(phase: Phase, setup_s: float, failed: int) -> dict:
    attempted = len(phase.records)
    p50, p90 = p50_p90_ms(phase.cpu)
    return {
        "setup_s": metric(setup_s, "s"),
        "ops_per_cpu_s": metric(attempted / sum(phase.cpu), "1/s"),
        "cpu_p50_ms": metric(p50, "ms"),
        "cpu_p90_ms": metric(p90, "ms"),
        "ok_frac": metric(1.0 - failed / attempted, "frac"),
        "peak_rss_mb": metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


def per_layer(tracer, untraced: Phase, traced: Phase, import_s: dict, known_failing: int) -> dict:
    from spans import LAYERS

    totals = tracer.layer_totals()
    c = tracer.counts
    out = {}
    for layer in LAYERS:
        out[f"{layer}.calls"] = metric(totals[layer]["calls"], "count")
        out[f"{layer}.self_s"] = metric(totals[layer]["self_s"], "s")
        out[f"{layer}.failed"] = metric(totals[layer]["failed"], "count")
        out[f"{layer}.import_s"] = metric(import_s[layer], "s")
    exp_s, mc_s = totals["expint"]["self_s"], totals["montecarlo"]["self_s"]
    out["expint.terms"] = metric(c["expint.terms"], "count")
    out["expint.ns_per_term"] = metric(exp_s / c["expint.terms"] * 1e9 if c["expint.terms"] else 0.0, "ns")
    out["montecarlo.samples"] = metric(c["montecarlo.samples"], "count")
    out["montecarlo.samples_per_s"] = metric(c["montecarlo.samples"] / mc_s if mc_s else 0.0, "1/s")
    mimo_calls = totals["mimo"]["calls"]
    out["mimo.sampled_frac"] = metric(c["mimo.sampled_calls"] / mimo_calls if mimo_calls else 0.0, "frac")
    out["mimo.tie_frac"] = metric(c["mimo.ties"] / c["mimo.searches"] if c["mimo.searches"] else 0.0, "frac")
    out["sweeps.rows"] = metric(c["sweeps.rows"], "count")
    out["cli.exit_nonzero"] = metric(c["cli.exit_nonzero"], "count")
    out["cli.bytes_out"] = metric(c["cli.bytes_out"], "B")
    plain, slow = len(untraced.records) / sum(untraced.cpu), len(traced.records) / sum(traced.cpu)
    out["trace.ops_per_cpu_s_untraced"] = metric(plain, "1/s")
    out["trace.ops_per_cpu_s_traced"] = metric(slow, "1/s")
    out["trace.overhead_frac"] = metric(plain / slow - 1.0, "frac")
    out["trace.spans"] = metric(len(tracer.span_start), "count")
    out["siso.known_defects"] = metric(known_failing, "count")
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="pilotbounds benchmark")
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    fix_malloc()
    if not (SRC / "pilotbounds" / "__init__.py").is_file():
        print(f"error: no pilotbounds package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import pilotbounds

    if not Path(pilotbounds.__file__).resolve().is_relative_to(SRC.resolve()):
        print(f"error: imported pilotbounds from {pilotbounds.__file__}, not {SRC}", file=sys.stderr)
        return 2

    import workloads as W
    from pilotbounds import cli, expint, mimo, montecarlo, params, siso, sweeps

    OUT.mkdir(exist_ok=True)
    known = load_known(HERE / "known_defects.json", args.workload)
    wl = {
        "siso_closed_form": lambda: W.SisoClosedForm(frozenset((kind, a) for kind, a, _ in known)),
        "mimo_sampled": W.MimoSampled,
        "cli_reports": lambda: W.CliReports(OUT),
    }[args.workload]()
    refs = W.Refs(HERE / "refs.json")

    if args.trace:
        import spans as T

        import_s = T.import_times(SRC, IMPORTTIME_REPEATS)
    else:
        setup_s = measure_setup(SETUP_REPEATS)

    for op in wl.warmup():
        try:
            wl.collect(op, wl.execute(op))
        except Exception:  # a failing op is counted in the measured loop, not here
            pass

    if args.trace:
        untraced = run_phase(wl, args.seed, args.seconds / 2)
        modules = dict(cli=cli, expint=expint, mimo=mimo, montecarlo=montecarlo,
                       params=params, siso=siso, sweeps=sweeps)
        tracer = T.Tracer(modules)
        tracer.install()
        try:
            traced = run_phase(wl, args.seed, args.seconds, rounds=untraced.rounds, tracer=tracer)
        finally:
            tracer.uninstall()
        tracer.write(OUT / f"trace-{wl.name}-seed{args.seed}.npz")
        records = untraced.records + traced.records
        failures, unexpected = check_records(wl, records, refs, known)
        still, odd = probe_known(wl, refs, known)
        metrics = per_layer(tracer, untraced, traced, import_s, len(still))
    else:
        phase = run_phase(wl, args.seed, args.seconds)
        records = phase.records
        failures, unexpected = check_records(wl, records, refs, known)
        metrics = end_to_end(phase, setup_s, len(failures))
        p50, p90 = p50_p90_ms(phase.latencies)
        print(f"wall clock: ops_per_s {len(records) / phase.wall:.4f}, "
              f"latency_p50_ms {p50:.4f}, latency_p90_ms {p90:.4f}")
        still, odd = [], []

    print_failures("failed", failures, unexpected)
    if args.trace and known:
        print(f"known defects: {len(still)} of {len(known)} listed points still fail, "
              f"{len(known) - len(still)} pass")
    print_failures("known defect", still, odd)
    print(json.dumps({
        "correct": not (failures or odd),
        "attempted": len(records),
        "failed": len(failures),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
