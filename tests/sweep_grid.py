"""The CLI sweeps against the public functions, bit for bit.

Run as a script, it builds sweep_fig1, sweep_fig2 and convergence_table
on the benchmark's CLI grids and at their defaults, and compares every
row with the public functions it reports:

* fig1: capacity_csi, separate_bound (value and tau*) and
  joint_bound_j1 at tau = 1, at the fig1 grid's 15 blocklengths and
  -10 ... 30 dB (17 SNRs);
* fig2: power_advantage_asymptotic and power_advantage_at_snr, at the
  fig2 grid's 14 blocklengths and 0 ... 30 dB (13 SNRs);
* convergence: capacity less separate_bound and joint_bound_j2 at tau = 1,
  and their scaled columns, over the whole SISO grid (23 blocklengths,
  2 ... 1000) at each of the 13 SNRs.

The sweeps take each SNR's separate bounds from one array of lanes and
pass a capacity formed once per SNR through private helpers; here every
value comes from its own public call.  It prints every row that differs
and exits 1 if any does:

    PYTHONPATH=src python tests/sweep_grid.py
    PYTHONPATH=src python -W error::RuntimeWarning tests/sweep_grid.py

test_sweeps.py checks a smaller grid on both sides of the kernel's
scalar/vector continued-fraction switch.
"""

from __future__ import annotations

import math
import sys
from pathlib import Path

from pilotbounds import siso, sweeps
from pilotbounds.params import SisoParams, SnrValue

sys.path.append(str(Path(__file__).resolve().parents[1]))  # the repo root, for bench
from bench.grids import CLI_FIG1_SNR_DB, CLI_FIG1_T, CLI_FIG2_T, CLI_SNR_DB, SISO_T_GRID  # noqa: E402


def fig1_row(db: float, T: int) -> tuple:
    snr = SnrValue.from_db(db)
    sep = siso.separate_bound(T, snr)
    j1 = siso.joint_bound_j1(SisoParams(T=T, tau=1, snr=snr))
    return (db, T, siso.capacity_csi(snr), sep.value, sep.tau_star, j1)


def fig2_row(T: int, dbs) -> tuple:
    offsets = tuple(siso.power_advantage_at_snr(T, SnrValue.from_db(db)).value_db for db in dbs)
    return (T, siso.power_advantage_asymptotic(T).value_db) + offsets


def convergence_row(T: int, snr: SnrValue) -> tuple:
    c = siso.capacity_csi(snr)
    gap_sep = c - siso.separate_bound(T, snr).value
    gap_joint = c - siso.joint_bound_j2(SisoParams(T=T, tau=1, snr=snr))
    return (T, gap_sep, gap_sep * math.sqrt(T), gap_joint, gap_joint * T / math.log2(T))


def tables():
    """(label, sweep table, expected rows) for every grid checked."""
    fig1 = [(CLI_FIG1_T, CLI_FIG1_SNR_DB), (sweeps.FIG1_DEFAULT_T_GRID, sweeps.FIG1_DEFAULT_SNR_DB)]
    for grid, dbs in fig1:
        yield "fig1", sweeps.sweep_fig1(grid, dbs), [fig1_row(db, T) for db in dbs for T in grid]
    fig2 = [(CLI_FIG2_T, CLI_SNR_DB), (sweeps.FIG2_DEFAULT_T_GRID, sweeps.FIG2_DEFAULT_SNR_DB)]
    for grid, dbs in fig2:
        yield "fig2", sweeps.sweep_fig2(grid, dbs), [fig2_row(T, dbs) for T in grid]
    convergence = [(SISO_T_GRID, SnrValue.from_db(db)) for db in CLI_SNR_DB]
    convergence.append((sweeps.CONVERGENCE_DEFAULT_T_GRID, SnrValue(10.0)))
    for grid, snr in convergence:
        yield "convergence", sweeps.convergence_table(grid, snr), [convergence_row(T, snr) for T in grid]


def main() -> int:
    rows = differ = 0
    for label, table, expected in tables():
        if len(table.rows) != len(expected):
            print(label, "row count", len(table.rows), "!=", len(expected))
            differ += 1
        for got, want in zip(table.rows, expected):
            rows += 1
            if got != want:
                print(label, got, want)
                differ += 1
    print(f"{differ} of {rows} rows differ")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
