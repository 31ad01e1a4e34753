"""Figure and table generators plus the closed-form-vs-MC harness.

Every emitted table is a pure function of its arguments (grids and
McConfig), with rows in grid order, so repeated runs serialize to
identical bytes.
"""

from __future__ import annotations

import math
from dataclasses import replace
from typing import NamedTuple, Sequence

import numpy as np

from . import mimo, montecarlo as mc, siso
from .expint import LOG2E, _scaled_sums
from .montecarlo import Estimate, McConfig
from .params import MimoParams, SisoParams, SnrValue, _check_int, _check_snr_blocklength, linear_snr

FIG1_DEFAULT_T_GRID = (2, 3, 4, 6, 8, 12, 16, 24, 32, 48, 64, 96, 128)
FIG1_DEFAULT_SNR_DB = (0.0, 10.0)
FIG2_DEFAULT_T_GRID = tuple(
    sorted({int(round(x)) for x in np.logspace(math.log10(2.0), 2.0, 25)})
)
FIG2_DEFAULT_SNR_DB = (10.0, 20.0)
CONVERGENCE_DEFAULT_T_GRID = tuple(
    sorted({int(round(x)) for x in np.logspace(1.0, 4.0, 13)})
)

_Z_LIMIT = 4.0


class SweepTable(NamedTuple):
    columns: tuple[str, ...]
    rows: tuple[tuple, ...]


class ValidationCell(NamedTuple):
    name: str
    reference: float
    estimate: float
    std_error: float
    z: float


class ValidationReport(NamedTuple):
    config: McConfig
    cells: tuple[ValidationCell, ...]
    max_abs_z: float
    passed: bool

    def render(self) -> str:
        lines = [
            "closed-form vs Monte Carlo validation",
            f"seed={self.config.seed} stream_id={self.config.stream_id} samples={self.config.samples}",
            f"{'name':44s} {'reference':>14s} {'estimate':>14s} {'std_error':>12s} {'z':>8s}",
        ]
        for c in self.cells:
            lines.append(
                f"{c.name:44s} {c.reference:14.6f} {c.estimate:14.6f} "
                f"{c.std_error:12.3e} {c.z:8.2f}"
            )
        lines.append(f"max |z| = {self.max_abs_z:.2f}")
        lines.append("PASS (all |z| <= 4)" if self.passed else "FAIL (some |z| > 4)")
        return "\n".join(lines) + "\n"


def _check_t_grid(T_grid: Sequence[int]) -> tuple[int, ...]:
    grid = tuple(_check_int("T", T, 2) for T in T_grid)
    if len(grid) < 2:
        raise ValueError(f"grid needs at least 2 points, got {len(grid)}")
    if any(b <= a for a, b in zip(grid, grid[1:])):
        raise ValueError("grid must be strictly increasing")
    return grid


def _check_snr_db_list(snr_db_list: Sequence[float]) -> tuple[float, ...]:
    dbs = tuple(float(db) for db in snr_db_list)
    if not dbs:
        raise ValueError("SNR list needs at least 1 point, got 0")
    return dbs


def sweep_fig1(
    T_grid: Sequence[int] = FIG1_DEFAULT_T_GRID,
    snr_db_list: Sequence[float] = FIG1_DEFAULT_SNR_DB,
) -> SweepTable:
    """Spectral efficiency vs blocklength: capacity, best separate bound
    (with its pilot count), and the joint bound at one pilot, each equal
    to its public function bit for bit.  Per SNR, capacity is formed once
    and serves the j1 column too, and the separate bounds at every T come
    from one array of lanes up to the largest T (siso._separate_bounds),
    not one per T."""
    grid = _check_t_grid(T_grid)
    rows = []
    for db in _check_snr_db_list(snr_db_list):
        snr = SnrValue.from_db(db)
        c = siso.capacity_csi(snr)
        for T, sep in zip(grid, siso._separate_bounds(grid, snr.linear)):
            j1 = siso._j1_value(1, T, snr.linear, c)
            rows.append((db, T, c, sep.value, sep.tau_star, j1))
    return SweepTable(
        columns=("snr_db", "T", "capacity", "separate", "separate_tau_star", "joint_j1_tau1"),
        rows=tuple(rows),
    )


def sweep_fig2(
    T_grid: Sequence[int] = FIG2_DEFAULT_T_GRID,
    snr_db_list: Sequence[float] = FIG2_DEFAULT_SNR_DB,
) -> SweepTable:
    """Joint-over-separate power advantage vs blocklength, in dB: the
    high-SNR asymptote plus power_advantage_at_snr at each finite SNR, the
    least lane root, with its target j2 formed from one capacity per SNR."""
    grid = _check_t_grid(T_grid)
    snr_db_list = _check_snr_db_list(snr_db_list)
    snrs = [SnrValue.from_db(db).linear for db in snr_db_list]
    caps = [siso.capacity_csi(s) for s in snrs]
    rows = []
    for T in grid:
        row = [T, siso.power_advantage_asymptotic(T).value_db]
        for s, c in zip(snrs, caps):
            _check_snr_blocklength(s, T)  # the target's check
            target = siso._j2(1, T, s, c)
            row.append(siso._advantage_at_target(T, s, target).value_db)
        rows.append(tuple(row))
    return SweepTable(
        columns=("T", "asymptote_db") + tuple(f"advantage_{db:g}dB_db" for db in snr_db_list),
        rows=tuple(rows),
    )


def convergence_table(
    T_grid: Sequence[int] = CONVERGENCE_DEFAULT_T_GRID,
    snr=SnrValue(10.0),
) -> SweepTable:
    """Gap-to-capacity decay: raw gaps plus the rate-normalized columns
    (C - I_S)*sqrt(T) and (C - I_J2)*T/log2(T), which must stay bounded.

    Requires the grid to span at least two decades.  Capacity is formed
    once, and the separate bounds at every T come from one array of lanes
    up to the largest T (siso._separate_bounds), each equal to
    separate_bound(T, snr) bit for bit.
    """
    grid = _check_t_grid(T_grid)
    if grid[-1] < 100 * grid[0]:
        raise ValueError(
            f"grid must span >= 2 decades, got [{grid[0]}, {grid[-1]}]"
        )
    s = linear_snr(snr)
    c = siso.capacity_csi(s)
    rows = []
    for T, sep in zip(grid, siso._separate_bounds(grid, s)):
        gap_sep = c - sep.value
        gap_joint = c - siso._j2(1, T, s, c)
        rows.append(
            (
                T,
                gap_sep,
                gap_sep * math.sqrt(T),
                gap_joint,
                gap_joint * T / math.log2(T),
            )
        )
    return SweepTable(
        columns=(
            "T",
            "capacity_gap_separate",
            "separate_scaled",
            "capacity_gap_joint2",
            "joint2_scaled",
        ),
        rows=tuple(rows),
    )


_VALIDATE_SNR_DB = (-10.0, 0.0, 10.0, 20.0)
_VALIDATE_T = (2, 6, 10, 20)
_VALIDATE_TAU = (0, 1, 2)
_VALIDATE_RANK1 = ((1, 1), (1, 4), (4, 1))
_VALIDATE_GRAM = MimoParams(n_t=2, n_r=2, T=6, tau=2, snr=SnrValue(10.0))
_VALIDATE_PERTURBATIONS = ((2.5, 1.5), (3.0, 1.0), (4.0, 0.0))


def validate_all(cfg: McConfig) -> ValidationReport:
    """Run every closed-form-vs-sampler pairing on the standard grid.

    Cells: perfect-CSI capacity, the joint-bound penalty expectation,
    rank-1 capacity functionals, the exact n=1 reduction of the MIMO
    bounds, and pilot-Gram minimality.  Matrix-valued cells run at
    cfg.samples//10.  z is two-sided except for the Gram cells, where
    only a perturbation beating the uniform Gram counts against the
    claim.  PASS requires |z| <= 4 everywhere.
    """
    cells = []
    stream = 0

    def add_two_sided(name: str, reference: float, est: Estimate) -> None:
        diff = reference - est.mean
        if est.std_error == 0.0:
            z = 0.0 if diff == 0.0 else math.inf
        else:
            z = diff / est.std_error
        cells.append(ValidationCell(name, reference, est.mean, est.std_error, z))

    # Substreams are numbered as if each cell drew alone: capacity 1-4,
    # penalty (T, tau) groups 5-15 and 33 for their other SNRs, rank-1
    # 49-54, one per reduction SNR, Gram 57.  A shared draw takes the
    # substream of its lowest-numbered cell and skips the others': one
    # exponential draw serves the four capacity SNRs (stream 1), one
    # Gamma draw per T every (tau, SNR) penalty cell of that T (the
    # stream of its (T, 0) cell: 5, 7, 10, 13), and one Z draw both SNRs
    # of a rank-1 size (49, 51, 53).  Cells equal a lone call on that
    # substream where the draw is the lone call's: the capacity and rank-1
    # cells at their first SNR, and the penalty cells of T's largest tau,
    # whose Gamma(T - tau) the draw takes before any exponential is added.
    # The Gram check takes 57; new cells append after it.
    def next_cfg(samples: int, skip: int = 0) -> McConfig:
        nonlocal stream
        stream += 1
        sub = replace(cfg.substream(stream), samples=max(100, samples))
        stream += skip
        return sub

    snrs = [SnrValue.from_db(db) for db in _VALIDATE_SNR_DB]
    capacity = mc._sample_capacity_rows(snrs, next_cfg(cfg.samples, skip=len(snrs) - 1))
    for db, snr, est in zip(_VALIDATE_SNR_DB, snrs, capacity):
        add_two_sided(f"capacity[snr_db={db:g}]", siso.capacity_csi(snr), est)

    penalty = {}  # (T, tau) -> one estimate per SNR
    for T in _VALIDATE_T:
        taus = [tau for tau in _VALIDATE_TAU if tau < T]
        rows = mc._sample_penalty_terms(T, taus, snrs, next_cfg(cfg.samples, skip=len(taus) - 1))
        for i, tau in enumerate(taus):
            penalty[T, tau] = rows[i * len(snrs):(i + 1) * len(snrs)]
    stream += len(penalty) * (len(snrs) - 1)
    # every reference from one batched sum, each lane expint_scaled_sum's bits
    lanes = [(i, T, tau) for i in range(len(snrs)) for T, tau in penalty]
    closed = LOG2E * _scaled_sums(
        [T - tau for _, T, tau in lanes], [siso._j1_argument(tau, snrs[i].linear) for i, _, tau in lanes]
    )
    for (i, T, tau), ref in zip(lanes, closed.tolist()):
        name = f"penalty_term[T={T},tau={tau},snr_db={_VALIDATE_SNR_DB[i]:g}]"
        add_two_sided(name, ref, penalty[T, tau][i])

    rank1_dbs = (0.0, 10.0)
    rhos = [SnrValue.from_db(db) for db in rank1_dbs]
    for t, r in _VALIDATE_RANK1:
        ests = mc._sample_ctr_rows(t, r, rhos, next_cfg(cfg.samples // 10, skip=len(rhos) - 1))
        for db, rho, est in zip(rank1_dbs, rhos, ests):
            closed = mimo.capacity_ctr(t, r, rho).mean
            add_two_sided(f"ctr_rank1[t={t},r={r},rho_db={db:g}]", closed, est)

    for db in (0.0, 10.0):
        snr = SnrValue.from_db(db)
        p = MimoParams(n_t=1, n_r=1, T=10, tau=2, snr=snr)
        sp = SisoParams(T=10, tau=2, snr=snr)
        stream += 1  # a stream per SNR, unused: the Gram cell keeps its draws
        for label, mimo_fn, siso_fn in (
            ("j1", mimo.mimo_joint_j1, siso.joint_bound_j1),
            ("j2", mimo.mimo_joint_j2, siso.joint_bound_j2),
        ):
            # exact on both sides: any difference gives an infinite z
            reduced = mimo_fn(p)
            add_two_sided(f"reduction_{label}[T=10,tau=2,snr_db={db:g}]", siso_fn(sp), reduced)

    gram_cfg = next_cfg(cfg.samples // 10)
    report = mimo.pilot_gram_optimality_check(_VALIDATE_GRAM, _VALIDATE_PERTURBATIONS, gram_cfg)
    for row in report.rows:
        # One-sided: only the uniform Gram exceeding the perturbation
        # by more than the margin counts against minimality.
        z = 0.0
        if row.combined_std_error > 0.0:
            z = max(0.0, -row.excess_over_uniform / row.combined_std_error)
        cells.append(
            ValidationCell(
                name=f"gram_minimal[diag={row.diagonal!r}]",
                reference=report.uniform.mean,
                estimate=row.estimate.mean,
                std_error=row.combined_std_error,
                z=z,
            )
        )

    max_abs_z = max(abs(c.z) for c in cells)
    return ValidationReport(
        config=cfg,
        cells=tuple(cells),
        max_abs_z=max_abs_z,
        passed=max_abs_z <= _Z_LIMIT,
    )
