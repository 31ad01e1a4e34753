"""power_advantage_at_snr against its mpmath reference: the root, in dB,
of separate_bound(T, snr * 10^(d/10)).value = joint_bound_j2(T, 1, snr).

Run as a script, it checks every offset of the benchmark's table
bench/refs.json (its 23 blocklengths at -100 ... 40 dB in 2.5 dB steps,
1,311 points, bisected in mpmath to 1e-9 dB) to within 1e-8 dB, and
T = 10^6 and 10^9 at -40, 0 and 20 dB to within 1e-10 dB of
bench.reference.advantage_db bisected to 1e-12 dB.  It prints every
miss and exits 1 if there is one.  It also prints the mean and the
largest number of Newton solves (lane roots) per offset, counted by a
wrapper installed here only:

    PYTHONPATH=src python tests/offset_grid.py
    PYTHONPATH=src python -W error::RuntimeWarning tests/offset_grid.py

Both sources are only read.  test_siso.py checks coarser grids through
the same helpers.
"""

from __future__ import annotations

import functools
import json
import sys
from pathlib import Path

from pilotbounds import siso
from pilotbounds.params import SnrValue

ROOT = Path(__file__).resolve().parents[1]
sys.path.append(str(ROOT))  # the repo root, for bench
from bench.grids import SISO_SNR_DB, key  # noqa: E402
from bench.grids import SISO_T_GRID as BENCH_T  # noqa: E402  the benchmark's SISO blocklengths

GRID_TOL_DB = 1e-8
LONG_T = (10**6, 10**9)
LONG_DB = (-40.0, 0.0, 20.0)
LONG_TOL_DB = 1e-10


def table_offset_db(T: int, db: float) -> float | None:
    """The offset at a point of the benchmark's grid from bench/refs.json,
    or None off the grid."""
    return _table().get(key("A", T, db))


@functools.cache
def _table() -> dict:
    return json.loads((ROOT / "bench" / "refs.json").read_text())["values"]


def mpmath_offset_db(T: int, db: float, xtol: str = "1e-12") -> float | None:
    """bench.reference.advantage_db at 40 digits, bisected to xtol dB;
    None where the +/-60 dB bracket holds no crossing.  The reference
    sets mpmath's global precision when imported, so it is imported and
    run within workdps, which restores the caller's."""
    import mpmath

    with mpmath.workdps(40):
        from bench import reference

        value = reference.advantage_db(T, db, xtol=mpmath.mpf(xtol))
    return None if value is None else float(value)


def reference_offset_db(T: int, db: float) -> float | None:
    """The table's offset where it has one, else mpmath's."""
    ref = table_offset_db(T, db)
    return mpmath_offset_db(T, db, "1e-9") if ref is None else ref


def misses(points, reference, tol: float, solves: list[int]) -> list[tuple]:
    """(T, dB, ours, reference) wherever the offset is more than tol dB
    from the reference or raises; appends the Newton solves of each
    offset to solves."""
    found = []
    lane_root = siso._lane_root_db

    def counted(*args):
        solves[-1] += 1
        return lane_root(*args)

    siso._lane_root_db = counted
    try:
        for T, db in points:
            solves.append(0)
            try:
                ours = siso.power_advantage_at_snr(T, SnrValue.from_db(db)).value_db
            except (ValueError, RuntimeError) as exc:
                ours = f"{type(exc).__name__}: {exc}"
            ref = reference(T, db)
            if isinstance(ours, str) or not abs(ours - ref) <= tol:
                found.append((T, db, ours, ref))
    finally:
        siso._lane_root_db = lane_root
    return found


def main() -> int:
    solves: list[int] = []
    grid = [(T, db) for T in BENCH_T for db in SISO_SNR_DB]
    found = misses(grid, table_offset_db, GRID_TOL_DB, solves)
    long = [(T, db) for T in LONG_T for db in LONG_DB]
    found += misses(long, mpmath_offset_db, LONG_TOL_DB, solves)
    for point in found:
        print(*point)
    n = len(grid) + len(long)
    print(
        f"{n} points, {len(found)} miss; per offset {sum(solves) / n:.2f} Newton solves "
        f"on average, {max(solves)} at most"
    )
    return 1 if found else 0


if __name__ == "__main__":
    sys.exit(main())
