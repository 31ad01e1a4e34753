"""power_advantage_at_snr against scipy.optimize.bisect on the public
separate_bound, value for value and exception for exception.

Run as a script, it compares the full grid, the benchmark's 23
blocklengths plus {3, 5, 40, 100} at -100 ... 40 dB in 2.5 dB steps and
at -160, -150, 60 and 3000 dB (1,586 points), prints every point that
differs and exits 1 if any does.  It also prints the mean work per
offset, counted by wrappers installed here only: kernel calls (eps_1
batches and scalar kernel calls), the lanes they evaluate, and the
lanes tried for the root:

    PYTHONPATH=src python tests/offset_grid.py
    PYTHONPATH=src python -W error::RuntimeWarning tests/offset_grid.py

test_siso.py checks coarser grids through the same helpers.
"""

from __future__ import annotations

import sys
from collections import Counter
from contextlib import contextmanager
from pathlib import Path

from pilotbounds import siso
from pilotbounds.params import DB_PER_UNIT, SisoParams, SnrValue
from pilotbounds.siso import joint_bound_j2, power_advantage_at_snr, separate_bound

sys.path.append(str(Path(__file__).resolve().parents[1]))  # the repo root, for bench
from bench.grids import SISO_T_GRID as BENCH_T  # noqa: E402  the benchmark's SISO blocklengths

GRID_T = tuple(sorted({*BENCH_T, 3, 5, 40, 100}))
GRID_DB = (*(-100.0 + 2.5 * i for i in range(57)), -160.0, -150.0, 60.0, 3000.0)

# scipy's error where the gaps at the bracket ends share a sign; there
# power_advantage_at_snr raises RuntimeError("offset saturated: ...")
SATURATED = ("ValueError", "f(a) and f(b) must have different signs")


def scipy_offset(T: int, snr: SnrValue) -> float:
    """The offset in 3-dB units through scipy.optimize.bisect."""
    from scipy import optimize

    target = joint_bound_j2(SisoParams(T=T, tau=1, snr=snr))

    def gap(delta_db):
        return separate_bound(T, snr.linear * 10.0 ** (delta_db / 10.0)).value - target

    return optimize.bisect(gap, -60.0, 60.0, xtol=1e-6) / DB_PER_UNIT


def outcome(f):
    """f()'s value, or the type and message of the error it raises, with
    a saturated offset read as scipy's error for the same condition."""
    try:
        return f()
    except (ValueError, RuntimeError) as exc:
        if str(exc).startswith("offset saturated"):
            return SATURATED
        return type(exc).__name__, str(exc)


def differences(Ts, dbs, work: Counter) -> list[tuple]:
    """(T, dB, ours, scipy's) at every point where the outcomes differ;
    adds the work of power_advantage_at_snr to work."""
    found = []
    for T in Ts:
        for db in dbs:
            snr = SnrValue.from_db(db)
            with counting(work):
                ours = outcome(lambda: power_advantage_at_snr(T, snr).value_3db_units)
            ref = outcome(lambda: scipy_offset(T, snr))
            if ours != ref:
                found.append((T, db, ours, ref))
    return found


@contextmanager
def counting(work: Counter):
    """Counts one offset, and the kernel calls, lanes and lane tries made
    within, into work, through wrappers on the names siso calls them by."""
    wrappers = {
        "_eps1_lanes": lambda f: lambda x: work.update(kernel_calls=1, lanes=len(x)) or f(x),
        "expint_scaled": lambda f: lambda k, x: work.update(kernel_calls=1, lanes=1) or f(k, x),
        "_lane_root_db": lambda f: lambda *args: work.update(lane_tries=1) or f(*args),
    }
    saved = {name: getattr(siso, name) for name in wrappers}
    for name, wrap in wrappers.items():
        setattr(siso, name, wrap(saved[name]))
    work.update(offsets=1)
    try:
        yield
    finally:
        for name, f in saved.items():
            setattr(siso, name, f)


def main() -> int:
    work = Counter()
    found = differences(GRID_T, GRID_DB, work)
    for point in found:
        print(*point)
    n = work["offsets"]
    print(
        f"{len(GRID_T) * len(GRID_DB)} points, {len(found)} differ; per offset: "
        f"{work['kernel_calls'] / n:.2f} kernel calls, {work['lanes'] / n:.1f} lanes, "
        f"{work['lane_tries'] / n:.2f} lane tries"
    )
    return 1 if found else 0


if __name__ == "__main__":
    sys.exit(main())
