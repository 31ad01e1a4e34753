"""Command-line front end.

Subcommands: bound, optimize-pilots, offset, sweep, validate.  Output
formats are text (default for scalars), csv (default for sweeps), and
json; json embeds a meta block echoing the fully resolved arguments so
a saved file identifies its own run.  dB-valued columns are rounded to
4 decimals at serialization only.  Exit codes: 0 success, 2 bad
arguments, a failed computation or an unwritable --out, 3 validation
failure.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
from typing import Optional, Sequence

from . import mimo, siso, sweeps
from .montecarlo import (
    DEFAULT_MATRIX_SAMPLES,
    DEFAULT_SCALAR_SAMPLES,
    Estimate,
    McConfig,
)
from .params import MimoParams, SisoParams, SnrValue


def _parse_int_list(text: str) -> tuple:
    return tuple(int(v) for v in text.split(",") if v.strip())


def _parse_float_list(text: str) -> tuple:
    return tuple(float(v) for v in text.split(",") if v.strip())


def _add_output_flags(sub, default_format: str) -> None:
    sub.add_argument("--format", choices=("text", "csv", "json"), default=default_format)
    sub.add_argument("--out", default=None, help="write output to this path instead of stdout")


def _add_mc_flags(sub) -> None:
    sub.add_argument("--samples", type=int, default=None)
    sub.add_argument("--seed", type=int, default=0)
    sub.add_argument("--workers", type=int, default=1)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pilotbounds",
        description="Spectral-efficiency bounds for pilot-assisted block-fading channels.",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    b = subs.add_parser("bound", help="evaluate one bound at one operating point")
    b.add_argument("--kind", choices=("c", "is", "j1", "j2"), required=True)
    b.add_argument("--T", type=int, default=None)
    b.add_argument("--tau", type=int, default=None)
    b.add_argument("--snr-db", type=float, required=True)
    b.add_argument("--nt", type=int, default=None)
    b.add_argument("--nr", type=int, default=None)
    _add_mc_flags(b)
    _add_output_flags(b, "text")

    o = subs.add_parser("optimize-pilots", help="best pilot count for a joint bound")
    o.add_argument("--T", type=int, required=True)
    o.add_argument("--snr-db", type=float, required=True)
    o.add_argument("--which", choices=("j1", "j2"), default="j1")
    o.add_argument("--nt", type=int, default=None, help="antennas per side (square MIMO)")
    _add_mc_flags(o)
    _add_output_flags(o, "text")

    f = subs.add_parser("offset", help="asymptotic power offsets and gaps, in dB")
    f.add_argument(
        "--kind",
        choices=(
            "advantage-asymptotic",
            "advantage-at-snr",
            "single-pilot",
            "true-capacity-gap",
        ),
        required=True,
    )
    f.add_argument("--T", type=int, required=True)
    f.add_argument("--snr-db", type=float, default=None)
    f.add_argument("--nt", type=int, default=None)
    _add_output_flags(f, "text")

    s = subs.add_parser("sweep", help="figure and table grids")
    s.add_argument("--kind", choices=("fig1", "fig2", "convergence"), required=True)
    s.add_argument("--T-grid", type=_parse_int_list, default=None)
    s.add_argument("--snr-db-list", type=_parse_float_list, default=None)
    s.add_argument("--snr-db", type=float, default=None)
    _add_output_flags(s, "csv")

    v = subs.add_parser("validate", help="closed forms vs Monte Carlo on the standard grid")
    v.add_argument("--samples", type=int, default=DEFAULT_SCALAR_SAMPLES)
    v.add_argument("--seed", type=int, default=0)
    v.add_argument("--workers", type=int, default=1)
    _add_output_flags(v, "text")

    return parser


def _meta(args: argparse.Namespace, **overrides) -> dict:
    meta = {}
    for key, val in vars(args).items():
        if isinstance(val, tuple):
            val = list(val)
        meta[key] = val
    meta.update(overrides)
    return meta


def _csv_cell(col: str, val, db_columns) -> str:
    if val is None:
        return ""
    if isinstance(val, bool):
        return "true" if val else "false"
    if isinstance(val, float):
        return f"{val:.4f}" if col in db_columns else repr(val)
    return str(val)


def _csv_text(columns, rows, db_columns) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(columns)
    for row in rows:
        writer.writerow([_csv_cell(c, v, db_columns) for c, v in zip(columns, row)])
    return buf.getvalue()


def _json_text(meta: dict, columns, rows, db_columns) -> str:
    out_rows = []
    for row in rows:
        entry = {}
        for col, val in zip(columns, row):
            if isinstance(val, float) and col in db_columns:
                val = round(val, 4)
            entry[col] = val
        out_rows.append(entry)
    return json.dumps({"meta": meta, "rows": out_rows}, sort_keys=True, indent=2) + "\n"


def _emit(args: argparse.Namespace, text: str) -> None:
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _emit_table(args, meta, columns, rows, db_columns, text_lines) -> None:
    if args.format == "csv":
        _emit(args, _csv_text(columns, rows, db_columns))
    elif args.format == "json":
        _emit(args, _json_text(meta, columns, rows, db_columns))
    else:
        _emit(args, "\n".join(text_lines) + "\n")


def _resolve_mc(args, matrix: bool) -> McConfig:
    samples = args.samples
    if samples is None:
        samples = DEFAULT_MATRIX_SAMPLES if matrix else DEFAULT_SCALAR_SAMPLES
    return McConfig(samples=samples, seed=args.seed)


_BOUND_COLUMNS = (
    "kind", "nt", "nr", "T", "tau", "snr_db",
    "tau_star", "value", "std_error", "samples_used", "tie_within_margin",
)


def _cmd_bound(args) -> int:
    if (args.nt is None) != (args.nr is None):
        raise ValueError("--nt and --nr must be given together")
    is_mimo = args.nt is not None
    snr = SnrValue.from_db(args.snr_db)
    matrix = is_mimo and min(args.nt, args.nr) > 1
    cfg = _resolve_mc(args, matrix)

    tau_star = None
    tie = None
    if args.kind == "c":
        if is_mimo:
            est = mimo.capacity_ctr(args.nt, args.nr, snr, cfg, args.workers)
        else:
            est = Estimate(siso.capacity_csi(snr), 0.0, 0)
    elif args.kind == "is":
        if args.T is None:
            raise ValueError("--kind is requires --T")
        if is_mimo:
            res = mimo.mimo_separate(args.nt, args.nr, args.T, snr, cfg, args.workers)
            est, tau_star, tie = res.value, res.tau_star, res.tie_within_margin
        else:
            res = siso.separate_bound(args.T, snr)
            est, tau_star = Estimate(res.value, 0.0, 0), res.tau_star
    else:
        if args.T is None or args.tau is None:
            raise ValueError(f"--kind {args.kind} requires --T and --tau")
        if is_mimo:
            p = MimoParams(n_t=args.nt, n_r=args.nr, T=args.T, tau=args.tau, snr=snr)
            fn = mimo.mimo_joint_j1 if args.kind == "j1" else mimo.mimo_joint_j2
            est = fn(p, cfg, args.workers)
        else:
            p = SisoParams(T=args.T, tau=args.tau, snr=snr)
            fn = siso.joint_bound_j1 if args.kind == "j1" else siso.joint_bound_j2
            est = Estimate(fn(p), 0.0, 0)

    row = (
        args.kind, args.nt, args.nr, args.T, args.tau, args.snr_db,
        tau_star, est.mean, est.std_error, est.samples_used, tie,
    )
    meta = _meta(args, samples=cfg.samples)
    _emit_table(args, meta, _BOUND_COLUMNS, [row], {"snr_db"}, [f"{est.mean:.5f}"])
    return 0


_OPTIMIZE_COLUMNS = (
    "nt", "which", "T", "snr_db",
    "tau_star", "value", "std_error", "tau_star_continuous", "tie_within_margin",
)


def _cmd_optimize(args) -> int:
    snr = SnrValue.from_db(args.snr_db)
    cfg = _resolve_mc(args, args.nt is not None and args.nt > 1)
    if args.nt is not None:
        res = mimo.mimo_optimize_pilots(args.nt, args.T, snr, cfg, args.workers)
        est, tie = res.value, res.tie_within_margin
        which = "j1"
    else:
        res = siso.optimize_pilots_joint(args.T, snr, which=args.which)
        est, tie = Estimate(res.value, 0.0, 0), None
        which = args.which
    row = (
        args.nt, which, args.T, args.snr_db,
        res.tau_star, est.mean, est.std_error, res.tau_star_continuous, tie,
    )
    lines = [
        f"tau_star={res.tau_star}",
        f"value={est.mean:.5f}",
        f"tau_star_continuous={res.tau_star_continuous:.6f}",
    ]
    if tie is not None:
        lines.append(f"tie_within_margin={'true' if tie else 'false'}")
    meta = _meta(args, samples=cfg.samples)
    _emit_table(args, meta, _OPTIMIZE_COLUMNS, [row], {"snr_db"}, lines)
    return 0


_OFFSET_COLUMNS = ("kind", "nt", "T", "snr_db", "component", "value_units", "value_db")


def _cmd_offset(args) -> int:
    rows = []
    lines = []
    if args.kind == "advantage-asymptotic":
        if args.nt is not None:
            off = mimo.mimo_power_advantage_asymptotic(args.nt, args.T)
        else:
            off = siso.power_advantage_asymptotic(args.T)
        rows.append((args.kind, args.nt, args.T, args.snr_db, None,
                     off.value_3db_units, off.value_db))
        lines.append(f"{off.value_db:.4f} dB")
    elif args.kind == "advantage-at-snr":
        if args.nt is not None:
            raise ValueError("--kind advantage-at-snr supports the single-antenna case only")
        if args.snr_db is None:
            raise ValueError("--kind advantage-at-snr requires --snr-db")
        off = siso.power_advantage_at_snr(args.T, SnrValue.from_db(args.snr_db))
        rows.append((args.kind, None, args.T, args.snr_db, None,
                     off.value_3db_units, off.value_db))
        lines.append(f"{off.value_db:.4f} dB")
    elif args.kind == "single-pilot":
        off = siso.single_pilot_advantage(args.T)
        rows.append((args.kind, args.nt, args.T, args.snr_db, None,
                     off.value_3db_units, off.value_db))
        lines.append(f"{off.value_db:.4f} dB")
    else:
        gap = siso.true_capacity_gap(args.T)
        for component, off in (
            ("penalty_exact", gap.exact),
            ("penalty_stirling", gap.stirling),
            ("gap_exact", gap.gap_exact),
            ("gap_stirling", gap.gap_stirling),
        ):
            rows.append((args.kind, args.nt, args.T, args.snr_db, component,
                         off.value_3db_units, off.value_db))
        lines.append(f"stirling {gap.gap_stirling.value_db:.4f} dB")
        lines.append(f"exact {gap.gap_exact.value_db:.4f} dB")
    _emit_table(args, _meta(args), _OFFSET_COLUMNS, rows, {"snr_db", "value_db"}, lines)
    return 0


def _cmd_sweep(args) -> int:
    if args.kind == "fig1":
        table = sweeps.sweep_fig1(
            args.T_grid or sweeps.FIG1_DEFAULT_T_GRID,
            args.snr_db_list or sweeps.FIG1_DEFAULT_SNR_DB,
        )
    elif args.kind == "fig2":
        table = sweeps.sweep_fig2(
            args.T_grid or sweeps.FIG2_DEFAULT_T_GRID,
            args.snr_db_list or sweeps.FIG2_DEFAULT_SNR_DB,
        )
    else:
        snr = SnrValue.from_db(args.snr_db) if args.snr_db is not None else SnrValue(10.0)
        table = sweeps.convergence_table(
            args.T_grid or sweeps.CONVERGENCE_DEFAULT_T_GRID, snr
        )
    db_columns = {"snr_db"} | {c for c in table.columns if c.endswith("_db")}
    text = _csv_text(table.columns, table.rows, db_columns)
    if args.format == "json":
        _emit(args, _json_text(_meta(args), table.columns, table.rows, db_columns))
    else:
        # text and csv coincide for tables
        _emit(args, text)
    return 0


_VALIDATE_COLUMNS = ("name", "reference", "estimate", "std_error", "z")


def _cmd_validate(args) -> int:
    cfg = McConfig(samples=args.samples, seed=args.seed)
    report = sweeps.validate_all(cfg, workers=args.workers)
    rows = [tuple(c) for c in report.cells]
    meta = _meta(args, passed=report.passed, max_abs_z=report.max_abs_z)
    if args.format == "csv":
        _emit(args, _csv_text(_VALIDATE_COLUMNS, rows, set()))
    elif args.format == "json":
        _emit(args, _json_text(meta, _VALIDATE_COLUMNS, rows, set()))
    else:
        _emit(args, report.render())
    return 0 if report.passed else 3


_COMMANDS = {
    "bound": _cmd_bound,
    "optimize-pilots": _cmd_optimize,
    "offset": _cmd_offset,
    "sweep": _cmd_sweep,
    "validate": _cmd_validate,
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code
        if code is None:
            return 0
        return code if isinstance(code, int) else 2
    try:
        return _COMMANDS[args.command](args)
    except (ValueError, RuntimeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
