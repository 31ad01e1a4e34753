"""Finite input grids shared by the workloads and the reference generator.

Every operation the benchmark runs takes its arguments from these
grids, so one committed reference table (refs.json) covers every seed.
This module is pure Python: it imports nothing from pilotbounds.
"""

from __future__ import annotations

import math

# SISO blocklengths: 23 distinct integers, log-spaced on [2, 1000].
SISO_T_GRID = tuple(
    sorted({int(round(10 ** (math.log10(2.0) + i * (3.0 - math.log10(2.0)) / 23))) for i in range(24)})
)
SISO_TAUS = (0, 1, 2)
# SISO SNR: -100 ... +40 dB in 2.5 dB steps (exact in binary).
SISO_SNR_DB = tuple(-100.0 + 2.5 * i for i in range(57))
# Four equal strata of the SISO SNR range; the lowest holds vanishing SNR.
SISO_SNR_STRATA = tuple(SISO_SNR_DB[14 * i: 14 * i + 14 + (1 if i == 3 else 0)] for i in range(4))

# Blocklengths used by `validate`'s penalty cells; 20 is not on SISO_T_GRID.
VALIDATE_T = (2, 6, 10, 20)
VALIDATE_RANK1 = ((1, 1), (1, 4), (4, 1))
VALIDATE_RANK1_DB = (0.0, 10.0)

MIMO_NT = (2, 3, 4)
MIMO_NR = (1, 2, 3, 4)
MIMO_SNR_DB = tuple(float(db) for db in range(-10, 31, 5))
MIMO_SNR_STRATA = (MIMO_SNR_DB[0:2], MIMO_SNR_DB[2:4], MIMO_SNR_DB[4:6], MIMO_SNR_DB[6:9])


def mimo_t_levels(n_t: int) -> tuple[int, ...]:
    """Blocklengths for transmit count n_t: n+1, 2n+2, 3n+3, 4n+4."""
    return (n_t + 1, 2 * n_t + 2, 3 * n_t + 3, 4 * n_t + 4)


def mimo_taus(n_t: int, T: int) -> tuple[int, ...]:
    """Pilot counts the MIMO joint bounds accept: 0 or n_t ... T-1."""
    return (0,) + tuple(range(n_t, T))


# CLI sweeps draw their grids from the SISO grids so the same table applies.
CLI_FIG1_T = tuple(T for T in SISO_T_GRID if T <= 128)
CLI_FIG2_T = tuple(T for T in SISO_T_GRID if T <= 100)
CLI_SNR_DB = tuple(db for db in SISO_SNR_DB if 0.0 <= db <= 30.0)
CLI_FIG1_SNR_DB = tuple(db for db in SISO_SNR_DB if -10.0 <= db <= 30.0)


def key(*parts) -> str:
    """Reference-table key: parts joined by '|', floats in repr form."""
    return "|".join(repr(float(p)) if isinstance(p, float) else str(p) for p in parts)
