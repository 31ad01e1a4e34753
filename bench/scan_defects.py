"""Write known_defects.json: every SISO grid point whose output fails its check.

Usage (from the repository root; about two minutes):

    python3 bench/scan_defects.py

siso_closed_form draws every op from a finite grid and its outputs are
deterministic, so evaluating the whole grid once finds every failure any
seed can meet.  Each failing grid point is recorded exactly, as
(op kind, arguments, reason).  The measured operations of run.py never
draw a listed point; run.py runs every listed point once after the
measurement and reports how many still fail, and a listed point failing
for another reason makes "correct" false.  A summary per (kind, reason)
with the highest SNR it reaches goes alongside.
All failures found at the time of writing lie at vanishing SNR, where the
closed forms lose their digits to cancellation.
"""

from __future__ import annotations

import json
import sys
import warnings
from collections import defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import grids as G  # noqa: E402
import workloads as W  # noqa: E402
from run import run_phase  # noqa: E402


class _GridOnce:
    """All grid points of siso_closed_form as one round."""

    name = W.SisoClosedForm.name

    def __init__(self):
        wl = W.SisoClosedForm()
        self.execute, self.collect, self.check = wl.execute, wl.collect, wl.check

    def round(self, seed, r):
        ops = []
        for kind in W.SISO_KINDS:
            for db in G.SISO_SNR_DB:
                if kind == "capacity_csi":
                    ops.append(W.Op(kind, (db,)))
                    continue
                for T in G.SISO_T_GRID:
                    if kind.startswith("joint_bound"):
                        ops += [W.Op(kind, (T, tau, db)) for tau in G.SISO_TAUS if tau < T]
                    else:
                        ops.append(W.Op(kind, (T, db)))
        return ops


def main() -> int:
    warnings.simplefilter("ignore", RuntimeWarning)
    grid = _GridOnce()
    phase = run_phase(grid, 0, 0.0, rounds=1)
    refs = W.Refs(HERE / "refs.json")
    totals = defaultdict(int)
    failures = []
    groups: dict = {}
    for op, out in phase.records:
        totals[op.kind] += 1
        reason = grid.check(op, out, refs)
        if reason:
            failures.append([op.kind, list(op.args), reason])
            entry = groups.setdefault((op.kind, reason), {"grid_points": 0, "max_snr_db": -1e9})
            entry["grid_points"] += 1
            entry["max_snr_db"] = max(entry["max_snr_db"], op.args[-1])  # SISO ops end with SNR in dB
    summary = [{"kind": kind, "reason": reason, **entry, "grid_points_of_kind": totals[kind]}
               for (kind, reason), entry in sorted(groups.items())]
    head = {"generator": "bench/scan_defects.py", "workload": grid.name,
            "grid_points": sum(totals.values()), "failing_points": len(failures), "summary": summary}
    # one failure per line keeps the file short and its diffs readable
    rows = ",\n  ".join(json.dumps(f) for f in sorted(failures))
    text = json.dumps(head, indent=1)[:-2] + ',\n "failures": [\n  ' + rows + "\n ]\n}\n"
    (HERE / "known_defects.json").write_text(text)
    for d in summary:
        print(f"{d['kind']} {d['reason']}: {d['grid_points']}/{d['grid_points_of_kind']} points, "
              f"up to {d['max_snr_db']:g} dB")
    return 0


if __name__ == "__main__":
    sys.exit(main())
