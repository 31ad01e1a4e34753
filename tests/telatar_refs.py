"""Quadrature references for C_{t,r}: the table tests/telatar_refs.json.

The table holds C_{t,r}(rho) = E log2 det(I + (rho/t) Z Z^H) by a
20-digit mpmath.quad of Telatar's eigenvalue density (telatar_quad) at
25 sizes and four SNRs, the 100 values that test_mimo.py's
test_exact_capacity_matches_quadrature compares capacity_ctr with.
Run as a script, it computes every value again, prints those that
differ from the table by more than 1e-15 relative, and exits 1 if any
does; with --write it writes the table instead.  The quadratures take
about 13 s on a 2-vCPU x86 host, so CI runs them here rather than in the
tier-1 suite:

    python tests/telatar_refs.py [--write]

pilotbounds is never imported.  test_mimo.py imports telatar_quad from
here for its other checks.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from pathlib import Path

import mpmath as mp

TABLE = Path(__file__).with_name("telatar_refs.json")
# every size here is admitted by the float Laguerre sum's guard at every
# SNR; r runs up to 20 as the penalty term C_{n_t, T-tau} does for
# T - tau <= 20
EXACT_SIZES = [
    (2, 2), (2, 3), (3, 2), (3, 3), (4, 2), (2, 4), (4, 4), (3, 8), (4, 8),
    (2, 16), (3, 16), (4, 16), (16, 4), (5, 5), (6, 6), (7, 7),
    (8, 8), (9, 9), (8, 11), (6, 20), (20, 6),
]
# sizes the guard refuses at every SNR here: the decimal sum, good to
# about one ulp
DECIMAL_SIZES = [(12, 12), (16, 16), (8, 32), (24, 24)]
SNR_DB = (-30.0, 0.0, 30.0, 60.0)
TOLERANCE = 1e-15


@functools.lru_cache(maxsize=None)
def telatar_quad(t: int, r: int, rho: float) -> float:
    """E log2 det(I + (rho/t) Z Z^H) by mpmath quadrature of Telatar's
    unordered-eigenvalue density

        sum_{k<m} k!/(k+d)! [L_k^(d)(lam)]^2 lam^d e^{-lam},

    m = min(t, r), d = |t - r|, with the Laguerre polynomials from
    their three-term recurrence."""
    m, d = min(t, r), abs(t - r)
    n = max(t, r)

    def density(lam):
        prev, cur = mp.mpf(0), mp.mpf(1)
        total = cur**2 / mp.factorial(d)
        for k in range(1, m):
            prev, cur = cur, ((2 * k - 1 + d - lam) * cur - (k - 1 + d) * prev) / k
            total += mp.factorial(k) / mp.factorial(k + d) * cur**2
        return total * lam**d * mp.exp(-lam)

    with mp.workdps(20):
        rho = mp.mpf(rho)
        # mp.quad's tolerance is absolute: integrate log1p(.)/rho, of
        # order 1, where rho is small
        scale = min(rho, 1)
        value = mp.quad(
            lambda lam: mp.log1p(rho * lam / t) / scale * density(lam),
            [0, 1, n, 2 * n + 4, 4 * n + 20, mp.inf],
        )
        return float(value * scale / mp.log(2))


def live() -> dict[tuple[int, int, float], float]:
    """Every reference of the table, computed now; the SNR of db is
    10^(db/10), as SnrValue.from_db forms it."""
    return {
        (t, r, db): telatar_quad(t, r, 10.0 ** (db / 10.0))
        for t, r in EXACT_SIZES + DECIMAL_SIZES
        for db in SNR_DB
    }


def load() -> dict[tuple[int, int, float], float]:
    """The committed table, keyed by (t, r, db)."""
    return {(t, r, db): value for t, r, db, value in json.loads(TABLE.read_text())}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--write", action="store_true", help="write the table instead of checking it")
    args = parser.parse_args(argv)
    values = live()
    if args.write:
        rows = [[t, r, db, value] for (t, r, db), value in values.items()]
        TABLE.write_text("[\n" + ",\n".join(map(json.dumps, rows)) + "\n]\n")
        print(f"wrote {len(rows)} references to {TABLE.name}")
        return 0
    table = load()
    bad = [key for key in values if key not in table or abs(values[key] - table[key]) > TOLERANCE * abs(values[key])]
    bad += [key for key in table if key not in values]
    for key in bad:
        print(*key, values.get(key), table.get(key))
    print(f"{len(bad)} of {len(values)} references differ from {TABLE.name} by more than {TOLERANCE} relative")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
