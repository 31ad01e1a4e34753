"""The three benchmark workloads: seeded operations, their execution
through pilotbounds' public API, and the check of every output.

Each workload is a closed loop with one client.  Operations come in
rounds: a round visits every stratum of the workload's input space once
(every blocklength of the grid for every operation kind).  The pairing of
blocklengths with SNR strata (and, for MIMO, with receive counts) is a
seeded permutation shifted by one each round, so any four consecutive
rounds hold every pairing once; the seed also picks the values inside
each stratum and the order.  A run therefore holds nearly the same mix of
cheap and expensive operations whatever the seed, which keeps its
medians steady, while the marginals stay as specified (T log-uniform on
the SISO grid, SNR uniform on its grid).

Outputs are checked against refs.json (made by make_refs.py with mpmath,
never by pilotbounds):

* closed forms within RTOL relative to the magnitude of their terms, the
  package's documented kernel accuracy (1e-10) with a margin;
* SISO orderings 0 <= j2 <= j1 <= (1 - tau/T) C and 0 <= I_S <= C, the
  pilot count inside its range and optimal within tolerance;
* sampled MIMO estimates within MC_SE standard errors of Telatar's exact
  value, and searched pilot counts within SEARCH_SE standard errors of
  the exact optimum;
* CLI reports: exit code, row count, and every row against the table.
"""

from __future__ import annotations

import json
import math
import random
import re
from pathlib import Path
from typing import NamedTuple

from pilotbounds import cli, mimo, montecarlo, params, siso

import grids as G

LOG2E = 1.0 / math.log(2.0)
RTOL = 1e-9
MC_SE = 5.0
SEARCH_SE = 10.0
ADV_TOL_DB = 1e-5
# dB columns of CLI output are rounded to 4 decimals.
CLI_DB_TOL = 1e-4 + ADV_TOL_DB
# Sample counts below the package defaults, forced by the run length.  A
# run holds at least four rounds (one Latin rotation) and 100 ops, and
# every run of the benchmark must fit in about 45 s.  Measured on a 2-vCPU
# Xeon: one mimo_sampled round (60 ops) takes 28 s at the default
# DEFAULT_MATRIX_SAMPLES = 100000 against 10-13 s at 24576, so four rounds
# would take 112 s; one `validate` takes 5.2 s at its default 1000000
# samples against 0.64 s at 65536, and 100 cli_reports ops, three in
# thirteen of them validate, would take 120 s.  24576 samples are one and
# a half 16384-sample blocks, so workers=2 still has two blocks to share.
MIMO_SAMPLES = 24576
MIMO_WORKERS = 2
VALIDATE_SAMPLES = 65536
VALIDATE_WORKERS = 2
# validate's cells: 4 capacity, 44 penalty, 6 rank-1, 4 reduction, 3 Gram.
VALIDATE_CELLS = 61


class Op(NamedTuple):
    kind: str
    args: tuple


class Raised(NamedTuple):
    """An operation that raised instead of returning."""

    exc_type: str
    message: str


class Refs:
    """Read-only view of refs.json with a lazy mpmath fallback for the
    rare optimize_pilots_joint answer outside the tabulated tau <= 2."""

    def __init__(self, path: Path):
        self.values = json.loads(path.read_text())["values"]
        self._extra: dict = {}

    def __call__(self, *parts):
        return self.values[G.key(*parts)]

    def joint(self, which: str, T: int, tau: int, db: float) -> float:
        k = G.key(which.upper(), T, tau, db)
        if k in self.values:
            return self.values[k]
        if k not in self._extra:
            import reference as R

            fn = R.joint_j1 if which == "j1" else R.joint_j2
            self._extra[k] = float(fn(T, tau, db))
        return self._extra[k]


class Workload:
    """One workload: round(seed, r) gives the ops of round r, execute(op)
    is the timed call, collect(op, raw) gathers its output untimed, and
    check(op, out, refs) returns "" or the reason the output is wrong."""

    name: str

    def collect(self, op: Op, raw):
        return raw


def _rng(workload: str, seed: int, round_index: int) -> random.Random:
    return random.Random(f"{workload}:{seed}:{round_index}")


def _latin(workload: str, seed: int, r: int, n_slots: int, values: tuple) -> list[list]:
    """For each of n_slots slots, the seed's permutation of `values`
    rotated by round r: four consecutive rounds pair every position with
    every value once."""
    base = random.Random(f"{workload}:{seed}:base")
    k = len(values)
    return [[values[(p + r) % k] for p in base.sample(range(k), k)] for _ in range(n_slots)]


def _close(value: float, ref: float, scale: float, rtol: float = RTOL) -> bool:
    return math.isfinite(value) and abs(value - ref) <= rtol * abs(scale)


# --------------------------------------------------------------------------
# siso_closed_form
# --------------------------------------------------------------------------

SISO_KINDS = (
    "capacity_csi", "joint_bound_j1", "joint_bound_j2", "separate_bound",
    "optimize_pilots_joint.j1", "optimize_pilots_joint.j2", "power_advantage_at_snr",
)


class SisoClosedForm(Workload):
    """SISO public API: capacity, bounds, pilot searches, power offsets.
    T on the log grid [2, 1000], tau in {0, 1, 2}, SNR -100 ... 40 dB.

    `skip` holds grid points, as (kind, args), that the rounds never draw:
    the known defects, which run.py's traced run checks apart."""

    name = "siso_closed_form"

    def __init__(self, skip: frozenset = frozenset()):
        self.skip = skip

    def round(self, seed: int, r: int) -> list[Op]:
        rng = _rng(self.name, seed, r)
        groups = range(0, len(G.SISO_T_GRID), 4)
        strata = iter(_latin(self.name, seed, r, len(SISO_KINDS) * len(groups), (0, 1, 2, 3)))
        ops = []
        for kind in SISO_KINDS:
            for g in groups:
                for T, st in zip(G.SISO_T_GRID[g:g + 4], next(strata)):
                    ops.append(Op(kind, rng.choice(self.points(kind, T, st))))
        rng.shuffle(ops)
        return ops

    def points(self, kind: str, T: int, st: int) -> list[tuple]:
        """Arguments of `kind` at blocklength T in SNR stratum st, less the
        skipped ones; the next stratum up if every one is skipped (at the
        lowest SNRs power_advantage_at_snr fails at every small T)."""
        for dbs in G.SISO_SNR_STRATA[st:]:
            if kind == "capacity_csi":
                args = [(db,) for db in dbs]
            elif kind.startswith("joint_bound"):
                args = [(T, tau, db) for db in dbs for tau in G.SISO_TAUS if tau < T]
            else:
                args = [(T, db) for db in dbs]
            args = [a for a in args if (kind, a) not in self.skip]
            if args:
                return args
        raise ValueError(f"every {kind} point at T={T} from stratum {st} up is skipped")

    def warmup(self) -> list[Op]:
        return [Op("capacity_csi", (10.0,)), Op("joint_bound_j1", (10, 1, 10.0)),
                Op("joint_bound_j2", (10, 1, 10.0)), Op("separate_bound", (10, 10.0)),
                Op("optimize_pilots_joint.j1", (10, 10.0)), Op("optimize_pilots_joint.j2", (10, 10.0)),
                Op("power_advantage_at_snr", (10, 10.0))]

    def execute(self, op: Op):
        k, a = op
        if k == "capacity_csi":
            return siso.capacity_csi(params.SnrValue.from_db(a[0]))
        if k == "joint_bound_j1":
            return siso.joint_bound_j1(params.SisoParams(T=a[0], tau=a[1], snr=params.SnrValue.from_db(a[2])))
        if k == "joint_bound_j2":
            return siso.joint_bound_j2(params.SisoParams(T=a[0], tau=a[1], snr=params.SnrValue.from_db(a[2])))
        if k == "separate_bound":
            r = siso.separate_bound(a[0], params.SnrValue.from_db(a[1]))
            return (r.value, r.tau_star)
        if k.startswith("optimize_pilots_joint"):
            r = siso.optimize_pilots_joint(a[0], params.SnrValue.from_db(a[1]), which=k[-2:])
            return (r.tau_star, r.value)
        if k == "power_advantage_at_snr":
            return siso.power_advantage_at_snr(a[0], params.SnrValue.from_db(a[1])).value_db
        raise ValueError(f"unknown op kind {k}")

    def check(self, op: Op, out, refs: Refs) -> str:
        k, a = op
        if k == "power_advantage_at_snr":
            T, db = a
            ref = refs("A", T, db)
            if ref is None:  # no crossing in the bracket: the documented answer is RuntimeError
                return "" if isinstance(out, Raised) and out.exc_type == "RuntimeError" else "saturation"
            if isinstance(out, Raised):
                return f"raised:{out.exc_type}"
            return "" if abs(out - ref) <= ADV_TOL_DB else "value"
        if isinstance(out, Raised):
            return f"raised:{out.exc_type}"
        if k == "capacity_csi":
            c = refs("C", a[0])
            return "" if out > 0.0 and _close(out, c, c) else "value"
        if k == "separate_bound":
            T, db = a
            value, tau_star = out
            if not 1 <= tau_star <= T - 1:
                return "tau_range"
            if not 0.0 <= value <= refs("C", db):
                return "ordering"
            if not _close(value, refs("S", T, db), refs("S", T, db)):
                return "value"
            return "" if tau_star in refs("St", T, db) else "tau_suboptimal"
        if k.startswith("joint_bound"):
            T, tau, db = a
            return _check_joint(k[-2:], T, tau, db, out, refs)
        T, db = a
        which = k[-2:]
        tau_star, value = out
        if not 0 <= tau_star <= T - 1:
            return "tau_range"
        reason = _check_joint(which, T, tau_star, db, value, refs)
        if reason:
            return reason
        best = max(refs.joint(which, T, tau, db) for tau in G.SISO_TAUS if tau < T)
        if refs.joint(which, T, tau_star, db) < best - RTOL * _joint_scale(which, T, tau_star, db, refs):
            return "tau_suboptimal"
        return ""


def _joint_scale(which: str, T: int, tau: int, db: float, refs: Refs) -> float:
    """Magnitude of the two terms a joint bound subtracts."""
    data = (1.0 - tau / T) * refs("C", db)
    return data + abs(data - refs.joint(which, T, tau, db))


def _check_joint(which: str, T: int, tau: int, db: float, value: float, refs: Refs) -> str:
    """Value within tolerance, then 0 <= j2 <= j1 <= (1 - tau/T) C."""
    if not _close(value, refs.joint(which, T, tau, db), _joint_scale(which, T, tau, db, refs)):
        return "value"
    upper = (1.0 - tau / T) * refs("C", db) if which == "j1" else refs.joint("j1", T, tau, db)
    lower = refs.joint("j2", T, tau, db) if which == "j1" else 0.0
    if not (lower <= value <= upper and value >= 0.0):
        return "ordering"
    return ""


# --------------------------------------------------------------------------
# mimo_sampled
# --------------------------------------------------------------------------

MIMO_KINDS = ("capacity_ctr", "mimo_joint_j1", "mimo_joint_j2", "mimo_separate", "mimo_optimize_pilots")


class MimoSampled(Workload):
    """MIMO public API with workers=2: capacity, joint bounds, searches.
    n_t in {2,3,4}, n_r in {1..4}, T in {n+1, 2n+2, 3n+3, 4n+4},
    SNR -10 ... 30 dB, one McConfig per op keyed from the seed."""

    name = "mimo_sampled"

    def round(self, seed: int, r: int) -> list[Op]:
        rng = _rng(self.name, seed, r)
        slots = len(G.MIMO_NT) * len(MIMO_KINDS)
        n_rs = iter(_latin(self.name + ":n_r", seed, r, slots, G.MIMO_NR))
        strata = iter(_latin(self.name + ":snr", seed, r, slots, (0, 1, 2, 3)))
        ops = []
        for n_t in G.MIMO_NT:
            for kind in MIMO_KINDS:
                for T, n_r, st in zip(G.mimo_t_levels(n_t), next(n_rs), next(strata)):
                    db = rng.choice(G.MIMO_SNR_STRATA[st])
                    mc_seed = rng.getrandbits(63)
                    if kind == "capacity_ctr":
                        ops.append(Op(kind, (n_t, n_r, db, mc_seed)))
                    elif kind in ("mimo_joint_j1", "mimo_joint_j2"):
                        tau = rng.choice(G.mimo_taus(n_t, T))
                        ops.append(Op(kind, (n_t, n_r, T, tau, db, mc_seed)))
                    elif kind == "mimo_separate":
                        ops.append(Op(kind, (n_t, n_r, T, db, mc_seed)))
                    else:
                        ops.append(Op(kind, (n_t, T, db, mc_seed)))
        rng.shuffle(ops)
        return ops

    def warmup(self) -> list[Op]:
        return [Op("capacity_ctr", (2, 2, 10.0, 1)), Op("mimo_joint_j1", (2, 2, 3, 2, 10.0, 2)),
                Op("mimo_joint_j2", (2, 1, 3, 0, 10.0, 3)), Op("mimo_separate", (2, 2, 3, 10.0, 4)),
                Op("mimo_optimize_pilots", (2, 3, 10.0, 5))]

    def execute(self, op: Op):
        k, a = op
        cfg = montecarlo.McConfig(samples=MIMO_SAMPLES, seed=a[-1])
        snr = params.SnrValue.from_db(a[-2])
        if k == "capacity_ctr":
            return tuple(mimo.capacity_ctr(a[0], a[1], snr, cfg, MIMO_WORKERS))
        if k in ("mimo_joint_j1", "mimo_joint_j2"):
            p = params.MimoParams(n_t=a[0], n_r=a[1], T=a[2], tau=a[3], snr=snr)
            fn = mimo.mimo_joint_j1 if k == "mimo_joint_j1" else mimo.mimo_joint_j2
            return tuple(fn(p, cfg, MIMO_WORKERS))
        if k == "mimo_separate":
            r = mimo.mimo_separate(a[0], a[1], a[2], snr, cfg, MIMO_WORKERS)
        else:
            r = mimo.mimo_optimize_pilots(a[0], a[1], snr, cfg, MIMO_WORKERS)
        return tuple(r.value) + (r.tau_star, r.tie_within_margin)

    def check(self, op: Op, out, refs: Refs) -> str:
        if isinstance(out, Raised):
            return f"raised:{out.exc_type}"
        k, a = op
        mean, se, used = out[:3]
        if k == "capacity_ctr":
            return _check_estimate(mean, se, used, refs("ctr", a[0], a[1], a[2]))
        if k in ("mimo_joint_j1", "mimo_joint_j2"):
            n_t, n_r, T, tau, db = a[:5]
            ref = _mimo_j1(refs, n_t, n_r, T, tau, db) if k == "mimo_joint_j1" else _mimo_j2(refs, n_t, n_r, T, tau, db)
            return _check_estimate(mean, se, used, ref)
        tau_star = out[3]
        if k == "mimo_separate":
            n_t, n_r, T, db = a[:4]
            candidates = {tau: (1.0 - tau / T) * refs("sep", n_t, n_r, tau, db) for tau in range(n_t, T)}
        else:
            n_t, T, db = a[:3]
            candidates = {tau: _mimo_j1(refs, n_t, n_t, T, tau, db) for tau in G.mimo_taus(n_t, T)}
        if tau_star not in candidates:
            return "tau_range"
        reason = _check_estimate(mean, se, used, candidates[tau_star])
        if reason:
            return reason
        best = max(candidates.values())
        slack = SEARCH_SE * se if used else RTOL * abs(best)
        return "" if candidates[tau_star] >= best - slack else "tau_suboptimal"


def _mimo_j1(refs: Refs, n_t, n_r, T, tau, db) -> float:
    return (1.0 - tau / T) * refs("ctr", n_t, n_r, db) - n_r * refs("pen", n_t, T - tau, tau, db) / T


def _mimo_j2(refs: Refs, n_t, n_r, T, tau, db) -> float:
    s = 10.0 ** (db / 10.0)
    log_term = (math.log1p(s * T / n_t) - math.log1p(s * tau / n_t)) * LOG2E
    return (1.0 - tau / T) * refs("ctr", n_t, n_r, db) - n_t * n_r * log_term / T


def _check_estimate(mean: float, se: float, used: int, ref: float) -> str:
    """Closed-form paths (no draws) within RTOL; sampled ones within MC_SE."""
    if used == 0:
        return "" if se == 0.0 and _close(mean, ref, ref) else "value"
    if not (se > 0.0 and math.isfinite(mean)):
        return "value"
    return "" if abs(mean - ref) <= MC_SE * se else "mc_5se"


# --------------------------------------------------------------------------
# cli_reports
# --------------------------------------------------------------------------


class CliReports(Workload):
    """`pilotbounds sweep --kind fig1|fig2|convergence` over seeded grids and
    `pilotbounds validate --seed k --workers 2`, via cli.main in-process,
    JSON written to a file."""

    name = "cli_reports"

    def __init__(self, out_dir: Path):
        self.out_path = out_dir / "cli_report.json"

    def round(self, seed: int, r: int) -> list[Op]:
        """Thirteen ops: two convergence and two fig1 sweeps (about 10 ms
        of CPU each), six fig2 sweeps (about 35 ms) and three validates
        (about 600 ms).  The median then falls near the middle of the fig2
        cluster and the 90th percentile inside the validate cluster, never
        near the edge between two kinds, where it would jump with the seed."""
        rng = _rng(self.name, seed, r)
        ops = []
        for _ in range(2):
            ops.append(Op("sweep_fig1", (tuple(sorted(rng.sample(G.CLI_FIG1_T, 4))),
                                         tuple(sorted(rng.sample(G.CLI_FIG1_SNR_DB, 2))))))
            first = rng.choice([T for T in G.SISO_T_GRID if T <= 10])
            last = rng.choice([T for T in G.SISO_T_GRID if T >= 100 * first])
            middle = rng.sample([T for T in G.SISO_T_GRID if first < T < last], 2)
            ops.append(Op("sweep_convergence", (tuple(sorted([first, last] + middle)), rng.choice(G.CLI_SNR_DB))))
        for _ in range(6):
            ops.append(Op("sweep_fig2", (tuple(sorted(rng.sample(G.CLI_FIG2_T, 3))),
                                         tuple(sorted(rng.sample(G.CLI_SNR_DB, 2))))))
        for _ in range(3):
            ops.append(Op("validate", (rng.randrange(2 ** 31), VALIDATE_SAMPLES)))
        rng.shuffle(ops)
        return ops

    def warmup(self) -> list[Op]:
        return [Op("sweep_fig1", ((2, 10), (0.0, 10.0))), Op("sweep_fig2", ((2, 10), (10.0, 20.0))),
                Op("sweep_convergence", ((2, 10, 1000), 10.0)), Op("validate", (0, 16384))]

    def argv(self, op: Op) -> list[str]:
        k, a = op
        # --flag=value, because argparse reads "-7.5,10.0" after a space as a flag
        if k == "validate":
            argv = ["validate", f"--seed={a[0]}", f"--samples={a[1]}", f"--workers={VALIDATE_WORKERS}"]
        elif k == "sweep_convergence":
            argv = ["sweep", "--kind=convergence", "--T-grid=" + ",".join(map(str, a[0])), f"--snr-db={a[1]!r}"]
        else:
            argv = ["sweep", "--kind=" + k[len("sweep_"):], "--T-grid=" + ",".join(map(str, a[0])),
                    "--snr-db-list=" + ",".join(map(repr, a[1]))]
        return argv + ["--format=json", "--out", str(self.out_path)]

    def execute(self, op: Op):
        return cli.main(self.argv(op))

    def collect(self, op: Op, raw):
        """Exit code plus the parsed report, read after the timed call."""
        text = self.out_path.read_text() if self.out_path.exists() else ""
        if self.out_path.exists():
            self.out_path.unlink()
        return (raw, json.loads(text) if text else None)

    def check(self, op: Op, out, refs: Refs) -> str:
        if isinstance(out, Raised):
            return f"raised:{out.exc_type}"
        code, doc = out
        k, a = op
        if k == "validate":
            return _check_validate(code, doc, refs)
        if code != 0 or doc is None:
            return "exit_code"
        rows = doc["rows"]
        if k == "sweep_fig1":
            T_grid, dbs = a
            if [(r["snr_db"], r["T"]) for r in rows] != [(db, T) for db in dbs for T in T_grid]:
                return "rows"
            for r in rows:
                T, db = r["T"], r["snr_db"]
                c, s = refs("C", db), refs("S", T, db)
                if not (_close(r["capacity"], c, c) and _close(r["separate"], s, s)):
                    return "value"
                if r["separate_tau_star"] not in refs("St", T, db):
                    return "tau_suboptimal"
                if _check_joint("j1", T, 1, db, r["joint_j1_tau1"], refs):
                    return "value"
            return ""
        if k == "sweep_fig2":
            T_grid, dbs = a
            if [r["T"] for r in rows] != list(T_grid):
                return "rows"
            import reference as R

            for r in rows:
                T = r["T"]
                if abs(r["asymptote_db"] - R.advantage_asymptotic_db(T)) > CLI_DB_TOL:
                    return "value"
                for db in dbs:
                    ref = refs("A", T, db)
                    if ref is None or abs(r[f"advantage_{db:g}dB_db"] - ref) > CLI_DB_TOL:
                        return "value"
            return ""
        T_grid, db = a
        if [r["T"] for r in rows] != list(T_grid):
            return "rows"
        c = refs("C", db)
        for r in rows:
            T = r["T"]
            gap_sep = c - refs("S", T, db)
            gap_joint = c - refs("J2", T, 1, db)
            expect = (
                ("capacity_gap_separate", gap_sep, 1.0),
                ("separate_scaled", gap_sep * math.sqrt(T), math.sqrt(T)),
                ("capacity_gap_joint2", gap_joint, 1.0),
                ("joint2_scaled", gap_joint * T / math.log2(T), T / math.log2(T)),
            )
            for col, ref, factor in expect:
                if not _close(r[col], ref, 2.0 * c * factor):
                    return "value"
        return ""


_CELL = re.compile(r"^(\w+)\[(.*)\]$")


def _check_validate(code: int, doc, refs: Refs) -> str:
    """Every cell's reference against the table, every sampled estimate
    within MC_SE of it, and the exit code consistent with the report."""
    if doc is None or code not in (0, 3):
        return "exit_code"
    rows, meta = doc["rows"], doc["meta"]
    if len(rows) != VALIDATE_CELLS:
        return "rows"
    max_z = max(abs(r["z"]) for r in rows)
    if meta["max_abs_z"] != max_z or meta["passed"] != (max_z <= 4.0) or (code == 0) != meta["passed"]:
        return "exit_code"
    for r in rows:
        m = _CELL.match(r["name"])
        kind, fields = m[1], dict(f.split("=", 1) for f in m[2].split(",") if "=" in f)
        if kind == "gram_minimal":
            excess = r["estimate"] - r["reference"]
            expect = max(0.0, -excess / r["std_error"]) if r["std_error"] > 0 else 0.0
            if not math.isclose(r["z"], expect, rel_tol=1e-12, abs_tol=1e-12):
                return "value"
            continue
        if kind.startswith("reduction_"):
            which = kind[-2:]
            T, tau, db = int(fields["T"]), int(fields["tau"]), float(fields["snr_db"])
            if r["estimate"] != r["reference"] or _check_joint(which, T, tau, db, r["reference"], refs):
                return "value"
            continue
        if kind == "capacity":
            ref = refs("C", float(fields["snr_db"]))
        elif kind == "penalty_term":
            ref = LOG2E * refs("P", int(fields["T"]), int(fields["tau"]), float(fields["snr_db"]))
        else:
            ref = refs("ctr", int(fields["t"]), int(fields["r"]), float(fields["rho_db"]))
        if not _close(r["reference"], ref, ref):
            return "value"
        if not (r["std_error"] > 0 and abs(r["estimate"] - ref) <= MC_SE * r["std_error"]):
            return "mc_5se"
    return ""

