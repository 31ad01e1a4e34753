"""Command-line front end.

Subcommands: bound, optimize-pilots, offset, sweep, validate.  Output
formats are text (default for scalars), csv (default for sweeps), and
json; json embeds a meta block echoing the fully resolved arguments
(for validate, with the bit generator its seed keys) so a saved file
identifies its own run.  dB-valued columns are rounded to
4 decimals at serialization only; a sweep's text is its csv.  Exit
codes: 0 success, 2 bad arguments (among them a flag the chosen kind
does not use and an empty grid), a failed computation or an
unwritable --out, 3 validation failure.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import math
import sys
from typing import NamedTuple, Optional, Sequence

from . import mimo, siso, sweeps
from .montecarlo import BIT_GENERATOR, DEFAULT_SCALAR_SAMPLES, McConfig
from .params import MimoParams, SisoParams, SnrValue, _check_int


def _parse_int_list(text: str) -> tuple:
    return tuple(int(v) for v in text.split(",") if v.strip())


def _finite_float(text: str) -> float:
    # nan and inf fail here, before a command looks at the value
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"not a finite number: {text!r}")
    return value


def _parse_float_list(text: str) -> tuple:
    return tuple(_finite_float(v) for v in text.split(",") if v.strip())


def _add_output_flags(sub, default_format: str) -> None:
    sub.add_argument("--format", choices=("text", "csv", "json"), default=default_format)
    sub.add_argument("--out", default=None, help="write output to this path instead of stdout")


# built on the first main call, not at import, and reused: parse_args
# leaves the parser as it found it
@functools.lru_cache(maxsize=None)
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
    b.add_argument("--snr-db", type=_finite_float, required=True)
    b.add_argument("--nt", type=int, default=None)
    b.add_argument("--nr", type=int, default=None)
    _add_output_flags(b, "text")

    o = subs.add_parser("optimize-pilots", help="best pilot count for a joint bound")
    o.add_argument("--T", type=int, required=True)
    o.add_argument("--snr-db", type=_finite_float, required=True)
    o.add_argument("--which", choices=("j1", "j2"), default="j1")
    o.add_argument("--nt", type=int, default=None, help="antennas per side (square MIMO)")
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
    f.add_argument("--snr-db", type=_finite_float, default=None)
    f.add_argument("--nt", type=int, default=None)
    _add_output_flags(f, "text")

    s = subs.add_parser("sweep", help="figure and table grids")
    s.add_argument("--kind", choices=("fig1", "fig2", "convergence"), required=True)
    s.add_argument("--T-grid", type=_parse_int_list, default=None)
    s.add_argument("--snr-db-list", type=_parse_float_list, default=None)
    s.add_argument("--snr-db", type=_finite_float, default=None)
    _add_output_flags(s, "csv")

    v = subs.add_parser("validate", help="closed forms vs Monte Carlo on the standard grid")
    v.add_argument("--samples", type=int, default=DEFAULT_SCALAR_SAMPLES)
    v.add_argument("--seed", type=int, default=0)
    v.add_argument("--workers", type=int, default=1)
    _add_output_flags(v, "text")

    return parser


class _Report(NamedTuple):
    """One command's result: its table, its text body (None where the
    text is the csv), the meta fields beyond the arguments, and the
    exit code."""

    columns: Sequence[str]
    rows: Sequence[tuple]
    text: Optional[str] = None
    meta: dict = {}
    code: int = 0


def _meta(args: argparse.Namespace, **extra) -> dict:
    # json writes the parsed grids, tuples, as lists
    return {**vars(args), **extra}


def _csv_cell(col: str, val) -> str:
    if val is None:
        return ""
    if isinstance(val, bool):
        return "true" if val else "false"
    if isinstance(val, float):
        return f"{val:.4f}" if col.endswith("_db") else repr(val)
    return str(val)


def _csv_text(columns, rows) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(columns)
    for row in rows:
        writer.writerow([_csv_cell(c, v) for c, v in zip(columns, row)])
    return buf.getvalue()


def _json_text(meta: dict, columns, rows) -> str:
    out_rows = []
    for row in rows:
        entry = {}
        for col, val in zip(columns, row):
            if isinstance(val, float) and col.endswith("_db"):
                val = round(val, 4)
            entry[col] = val
        out_rows.append(entry)
    return json.dumps({"meta": meta, "rows": out_rows}, sort_keys=True, indent=2) + "\n"


def _emit(args: argparse.Namespace, report: _Report) -> None:
    if args.format == "json":
        text = _json_text(_meta(args, **report.meta), report.columns, report.rows)
    elif args.format == "csv" or report.text is None:
        text = _csv_text(report.columns, report.rows)
    else:
        text = report.text
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


_BOUND_COLUMNS = ("kind", "nt", "nr", "T", "tau", "snr_db", "tau_star", "value")
# the block flags each kind requires; it rejects the others
_BOUND_BLOCK_FLAGS = {"c": (), "is": ("T",), "j1": ("T", "tau"), "j2": ("T", "tau")}


def _cmd_bound(args) -> _Report:
    if (args.nt is None) != (args.nr is None):
        raise ValueError("--nt and --nr must be given together")
    for flag in ("T", "tau"):
        required = flag in _BOUND_BLOCK_FLAGS[args.kind]
        if (getattr(args, flag) is None) == required:
            raise ValueError(f"--kind {args.kind} {'requires' if required else 'takes no'} --{flag}")
    is_mimo = args.nt is not None
    snr = SnrValue.from_db(args.snr_db)

    tau_star = None
    if args.kind == "c":
        value = mimo.capacity_ctr(args.nt, args.nr, snr).mean if is_mimo else siso.capacity_csi(snr)
    elif args.kind == "is":
        if is_mimo:
            res = mimo.mimo_separate(args.nt, args.nr, args.T, snr)
            value, tau_star = res.value.mean, res.tau_star
        else:
            res = siso.separate_bound(args.T, snr)
            value, tau_star = res.value, res.tau_star
    else:
        if is_mimo:
            p = MimoParams(n_t=args.nt, n_r=args.nr, T=args.T, tau=args.tau, snr=snr)
            fn = mimo.mimo_joint_j1 if args.kind == "j1" else mimo.mimo_joint_j2
            value = fn(p).mean
        else:
            p = SisoParams(T=args.T, tau=args.tau, snr=snr)
            fn = siso.joint_bound_j1 if args.kind == "j1" else siso.joint_bound_j2
            value = fn(p)

    row = (args.kind, args.nt, args.nr, args.T, args.tau, args.snr_db, tau_star, value)
    return _Report(_BOUND_COLUMNS, [row], f"{value:.5f}\n")


_OPTIMIZE_COLUMNS = ("nt", "which", "T", "snr_db", "tau_star", "value", "tau_star_continuous")


def _cmd_optimize(args) -> _Report:
    if args.nt is not None and args.which == "j2":
        raise ValueError("--which j2 takes no --nt")
    snr = SnrValue.from_db(args.snr_db)
    if args.nt is not None:
        res = mimo.mimo_optimize_pilots(args.nt, args.T, snr)
        value = res.value.mean
    else:
        res = siso.optimize_pilots_joint(args.T, snr, which=args.which)
        value = res.value
    row = (args.nt, args.which, args.T, args.snr_db, res.tau_star, value, res.tau_star_continuous)
    text = (f"tau_star={res.tau_star}\nvalue={value:.5f}\n"
            f"tau_star_continuous={res.tau_star_continuous:.6f}\n")
    return _Report(_OPTIMIZE_COLUMNS, [row], text)


_OFFSET_COLUMNS = ("kind", "nt", "T", "snr_db", "component", "value_units", "value_db")


def _cmd_offset(args) -> _Report:
    if args.nt is not None and args.kind != "advantage-asymptotic":
        raise ValueError(f"--kind {args.kind} takes no --nt")
    if args.snr_db is not None and args.kind != "advantage-at-snr":
        raise ValueError(f"--kind {args.kind} takes no --snr-db")
    if args.kind == "true-capacity-gap":
        gap = siso.true_capacity_gap(args.T)
        offsets = [
            ("penalty_exact", gap.exact),
            ("penalty_stirling", gap.stirling),
            ("gap_exact", gap.gap_exact),
            ("gap_stirling", gap.gap_stirling),
        ]
        text = (f"stirling {gap.gap_stirling.value_db:.4f} dB\n"
                f"exact {gap.gap_exact.value_db:.4f} dB\n")
    else:
        if args.kind == "advantage-asymptotic":
            if args.nt is not None:
                off = mimo.mimo_power_advantage_asymptotic(args.nt, args.T)
            else:
                off = siso.power_advantage_asymptotic(args.T)
        elif args.kind == "advantage-at-snr":
            if args.snr_db is None:
                raise ValueError("--kind advantage-at-snr requires --snr-db")
            off = siso.power_advantage_at_snr(args.T, SnrValue.from_db(args.snr_db))
        else:
            off = siso.single_pilot_advantage(args.T)
        offsets = [(None, off)]
        text = f"{off.value_db:.4f} dB\n"
    rows = [
        (args.kind, args.nt, args.T, args.snr_db, component, off.value_3db_units, off.value_db)
        for component, off in offsets
    ]
    return _Report(_OFFSET_COLUMNS, rows, text)


def _cmd_sweep(args) -> _Report:
    # pass on only the flags given: the sweeps own their defaults
    kwargs = {} if args.T_grid is None else {"T_grid": args.T_grid}
    if args.kind == "convergence":
        if args.snr_db_list is not None:
            raise ValueError("--kind convergence takes --snr-db, not --snr-db-list")
        if args.snr_db is not None:
            kwargs["snr"] = SnrValue.from_db(args.snr_db)
        table = sweeps.convergence_table(**kwargs)
    else:
        if args.snr_db is not None:
            raise ValueError(f"--kind {args.kind} takes --snr-db-list, not --snr-db")
        if args.snr_db_list is not None:
            kwargs["snr_db_list"] = args.snr_db_list
        sweep = sweeps.sweep_fig1 if args.kind == "fig1" else sweeps.sweep_fig2
        table = sweep(**kwargs)
    return _Report(table.columns, table.rows)


def _cmd_validate(args) -> _Report:
    cfg = McConfig(samples=args.samples, seed=args.seed)
    # checked for callers that pass it; the samplers choose their own threads
    _check_int("workers", args.workers, 1)
    report = sweeps.validate_all(cfg)
    # the seed keys the draws only together with the bit generator
    meta = {"passed": report.passed, "max_abs_z": report.max_abs_z,
            "bit_generator": BIT_GENERATOR}
    text = report.render() if args.format == "text" else None  # csv and json never read it
    return _Report(sweeps.ValidationCell._fields, report.cells, text, meta,
                   0 if report.passed else 3)


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
        report = _COMMANDS[args.command](args)
        _emit(args, report)
    except (ValueError, RuntimeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:  # a blocklength whose lanes or orders cannot be held
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 2
    return report.code
