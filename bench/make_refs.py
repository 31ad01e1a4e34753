"""Generate refs.json, the benchmark's independent reference table.

Usage (from the repository root; about six minutes on 2 cores):

    python3 bench/make_refs.py [--procs 2]

Every value comes from reference.py (mpmath only); pilotbounds is never
imported.  Before writing, the script cross-checks its own methods:
mpmath.e1 against quadrature, the summed penalty integrand against one
quadrature per order, the ternary-search separate maximum against the
exhaustive one, and Telatar's m = 1 case against the penalty sum.
"""

from __future__ import annotations

import argparse
import json
import multiprocessing
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import grids as G  # noqa: E402
import reference as R  # noqa: E402

# Relative tolerance the runner allows on closed-form values; the
# separate-bound entries list every pilot count within it of the maximum.
SEP_TIE_RTOL = 1e-9


def _siso_point(task):
    """C, P, J1, J2 for one (T, tau, db), computed at full mpmath precision."""
    T, tau, db = task
    s = R.snr(db)
    c = R.capacity(db)
    pen = R.penalty_sum(T - tau, tau + 1 / s)
    j1 = R.joint_j1(T, tau, db, c=c, pen=pen)
    j2 = R.joint_j2(T, tau, db, c=c)
    return [(G.key("P", T, tau, db), float(pen)), (G.key("J1", T, tau, db), float(j1)),
            (G.key("J2", T, tau, db), float(j2))]


def _capacity_point(db):
    return [(G.key("C", db), float(R.capacity(db)))]


def _separate_point(task):
    T, db = task
    s = R.snr(db)
    vals = R.separate_all(T, s)
    best = max(vals)
    taus = [i + 1 for i, v in enumerate(vals) if v >= best * (1 - SEP_TIE_RTOL)]
    ternary = R.separate_max(T, s)
    if ternary != best:
        raise AssertionError(f"ternary separate max differs at T={T}, db={db}")
    return [(G.key("S", T, db), float(best)), (G.key("St", T, db), taus)]


def _advantage_point(task):
    T, db = task
    d = R.advantage_db(T, db)
    return [(G.key("A", T, db), None if d is None else float(d))]


def _telatar_point(task):
    name, t, r, tau, db = task
    s = R.snr(db)
    if name == "ctr":
        rho, k = s, G.key("ctr", t, r, db)
    elif name == "pen":
        rho, k = R.rho_penalty(s, tau, t), G.key("pen", t, r, tau, db)
    else:
        rho, k = R.rho_separate(s, tau, t), G.key("sep", t, r, tau, db)
    return [(k, float(R.telatar(t, r, rho)))]


def _run(task):
    kind, args = task
    return {
        "C": _capacity_point,
        "siso": _siso_point,
        "S": _separate_point,
        "A": _advantage_point,
        "tel": _telatar_point,
    }[kind](args)


def tasks() -> list:
    out = [("C", db) for db in G.SISO_SNR_DB]
    siso_T = sorted(set(G.SISO_T_GRID) | set(G.VALIDATE_T))
    for T in siso_T:
        for tau in G.SISO_TAUS:
            if tau < T:
                out += [("siso", (T, tau, db)) for db in G.SISO_SNR_DB]
    for T in G.SISO_T_GRID:
        out += [("S", (T, db)) for db in G.SISO_SNR_DB]
        out += [("A", (T, db)) for db in G.SISO_SNR_DB]
    tel = set()
    for n_t in G.MIMO_NT:
        for db in G.MIMO_SNR_DB:
            for r in G.MIMO_NR:
                tel.add(("ctr", n_t, r, 0, db))
                for tau in range(n_t, G.mimo_t_levels(n_t)[-1]):
                    tel.add(("sep", n_t, r, tau, db))
            for T in G.mimo_t_levels(n_t):
                for tau in G.mimo_taus(n_t, T):
                    tel.add(("pen", n_t, T - tau, tau, db))
    for t, r in G.VALIDATE_RANK1:
        for db in G.VALIDATE_RANK1_DB:
            tel.add(("ctr", t, r, 0, db))
    out += [("tel", t) for t in sorted(tel)]
    return out


def self_checks() -> None:
    from mpmath import mp

    for x in ("1e-6", "0.3", "1", "5", "50", "193", "1e4", "1e10", "1e20"):
        a, b = R.eps1_fast(x), R.eps1_quad(x)
        if abs(a - b) > mp.mpf("1e-25") * b:
            raise AssertionError(f"mpmath.e1 disagrees with quadrature at x={x}")
    for m, x in ((1, "1e-4"), (7, "1e-4"), (20, "0.5"), (30, "2"), (12, "1e10"), (40, "100")):
        a, b = R.penalty_sum(m, x), R.penalty_sum_by_orders(m, x)
        if abs(a - b) > mp.mpf("1e-25") * b:
            raise AssertionError(f"penalty_sum disagrees with per-order sum at m={m}, x={x}")
    for t, r, rho in ((1, 4, 10), (4, 1, "0.1"), (1, 12, 3)):
        a = R.telatar(t, r, rho)
        b = R.LOG2E * R.penalty_sum(max(t, r), mp.mpf(t) / mp.mpf(rho))
        if abs(a - b) > mp.mpf("1e-12") * b:
            raise AssertionError(f"rank-1 Telatar disagrees with the penalty sum at t={t}, r={r}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--procs", type=int, default=2)
    parser.add_argument("--out", default=str(HERE / "refs.json"))
    args = parser.parse_args()
    t0 = time.monotonic()
    self_checks()
    work = tasks()
    # Longest tasks first so the pool drains evenly.
    work.sort(key=lambda t: t[0] not in ("tel", "A"))
    refs = {}
    ctx = multiprocessing.get_context("spawn")
    with ctx.Pool(args.procs) as pool:
        for i, items in enumerate(pool.imap_unordered(_run, work, chunksize=4)):
            refs.update(items)
            if i % 500 == 0:
                print(f"{i}/{len(work)} tasks, {time.monotonic() - t0:.0f} s", file=sys.stderr)
    doc = {
        "generator": "bench/make_refs.py",
        "sep_tie_rtol": SEP_TIE_RTOL,
        "values": dict(sorted(refs.items())),
    }
    Path(args.out).write_text(json.dumps(doc, indent=0, separators=(",", ":")) + "\n")
    print(f"wrote {len(refs)} values to {args.out} in {time.monotonic() - t0:.0f} s", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
