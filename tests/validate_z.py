"""The z scores of validate's sampled cells over many seeds.

Run as a script, it runs validate_all at 16384 samples for each of 400
fixed seeds, prints the mean, standard deviation and largest |z| of
each family of two-sided sampled cells (capacity, penalty_term,
ctr_rank1), and exits 1 unless every family has |mean| <= 0.1, a
standard deviation in [0.9, 1.1] and every |z| < 5:

    PYTHONPATH=src python tests/validate_z.py
    PYTHONPATH=src python -W error::RuntimeWarning tests/validate_z.py

A sampler whose draws are biased, or whose standard errors are too
small or too large, moves these away from a standard normal's 0, 1 and
a largest |z| near 4 even where every single report passes.  The
reduction cells are exact (z = 0) and the Gram cells one-sided, so
neither is a standard normal; the script leaves them out.
"""

from __future__ import annotations

import statistics
import sys

from pilotbounds.montecarlo import McConfig
from pilotbounds.sweeps import validate_all

SAMPLES = 16384
SEEDS = range(1, 401)
FAMILIES = ("capacity", "penalty_term", "ctr_rank1")
MAX_ABS_MEAN = 0.1
SD_RANGE = (0.9, 1.1)
MAX_ABS_Z = 5.0


def family_z() -> dict[str, list[float]]:
    """Every z of each family's cells, over the seeds."""
    zs = {family: [] for family in FAMILIES}
    for seed in SEEDS:
        for cell in validate_all(McConfig(samples=SAMPLES, seed=seed)).cells:
            family = cell.name.split("[", 1)[0]
            if family in zs:
                zs[family].append(cell.z)
    return zs


def summary(zs: list[float]) -> tuple[float, float, float]:
    """(mean, sample standard deviation, largest |z|)."""
    return statistics.fmean(zs), statistics.stdev(zs), max(abs(z) for z in zs)


def failures(mean: float, sd: float, max_abs: float) -> list[str]:
    """The limits a family misses; a NaN misses each it enters."""
    found = []
    if not abs(mean) <= MAX_ABS_MEAN:
        found.append(f"|mean| > {MAX_ABS_MEAN}")
    if not SD_RANGE[0] <= sd <= SD_RANGE[1]:
        found.append(f"sd outside {list(SD_RANGE)}")
    if not max_abs < MAX_ABS_Z:
        found.append(f"max |z| >= {MAX_ABS_Z}")
    return found


def main() -> int:
    bad = 0
    for family, zs in family_z().items():
        mean, sd, max_abs = summary(zs)
        found = failures(mean, sd, max_abs)
        bad += bool(found)
        print(f"{family:14s} n={len(zs):6d} mean={mean:+.3f} sd={sd:.3f} "
              f"max|z|={max_abs:.2f} {'; '.join(found) or 'ok'}")
    print(f"{len(SEEDS)} seeds at {SAMPLES} samples, {bad} of {len(FAMILIES)} families fail")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
