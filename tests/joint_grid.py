"""Both SISO joint pilot searches against the exhaustive first-maximum scan.

Run as a script, it compares optimize_pilots_joint(T, snr, which) for
which = "j1" and "j2" with the first maximum over every tau in [0, T-1]
of joint_bound_j1's and joint_bound_j2's expressions (siso._j1_values,
siso._j2 per tau), value for value, on the benchmark's SISO grid: its 23
blocklengths at -100 ... 40 dB in 2.5 dB steps (1,311 points).  It
prints every search that differs and exits 1 if any does.  It also
prints the mean number of lanes (pilot counts, the head tau in {0, 1}
included) whose penalty the j1 search sums, counted by a wrapper
installed here only:

    PYTHONPATH=src python tests/joint_grid.py
    PYTHONPATH=src python -W error::RuntimeWarning tests/joint_grid.py

test_siso.py checks coarser grids and longer blocks.
"""

from __future__ import annotations

import sys
from pathlib import Path

import numpy as np

from pilotbounds import siso
from pilotbounds.params import SnrValue

sys.path.append(str(Path(__file__).resolve().parents[1]))  # the repo root, for bench
from bench.grids import SISO_SNR_DB, SISO_T_GRID  # noqa: E402  the benchmark's SISO grid


def scan(T: int, s: float, which: str) -> tuple[int, float]:
    """(tau*, value) of the exhaustive scan: the public bound's
    expression at every tau, np.argmax keeping the first maximum."""
    c = siso.capacity_csi(s)
    if which == "j1":
        values = siso._j1_values(np.arange(T), T, s, c)
    else:
        values = np.array([siso._j2(tau, T, s, c) for tau in range(T)])
    best = int(np.argmax(values))
    return best, float(values[best])


def search(T: int, s: float, which: str, lanes: list[int]) -> tuple[int, float]:
    """(tau*, value) of the search; adds the lanes it sums to lanes."""
    kernel = siso._scaled_sums
    siso._scaled_sums = lambda n, x: lanes.append(len(n)) or kernel(n, x)
    try:
        res = siso.optimize_pilots_joint(T, SnrValue(s), which=which)
    finally:
        siso._scaled_sums = kernel
    return res.tau_star, res.value


def main() -> int:
    lanes: list[int] = []
    found = []
    for T in SISO_T_GRID:
        for db in SISO_SNR_DB:
            s = SnrValue.from_db(db).linear
            for which in ("j1", "j2"):
                ours, ref = search(T, s, which, lanes), scan(T, s, which)
                if ours != ref:
                    found.append((which, T, db, ours, ref))
    for point in found:
        print(*point)
    n = len(SISO_T_GRID) * len(SISO_SNR_DB)
    print(f"{len(found)} of {2 * n} searches differ; {sum(lanes) / n:.2f} lanes summed per j1 search")
    return 1 if found else 0


if __name__ == "__main__":
    sys.exit(main())
