"""End-to-end acceptance checks for the shipped numerical claims.

One test per headline claim, each at its stated tolerance and runtime
budget.  Every test prints a single summary line on success (visible
with pytest -s), and the test name itself doubles as the pass/fail
line under pytest -v.
"""

import contextlib
import io
import math
import time

import pytest

from pilotbounds import cli
from pilotbounds.expint import LOG2E
from pilotbounds.mimo import (
    capacity_ctr,
    mimo_joint_j1,
    mimo_joint_j2,
    pilot_gram_optimality_check,
)
from pilotbounds.montecarlo import McConfig, sample_ctr, sample_penalty_term
from pilotbounds.params import DB_PER_UNIT, MimoParams, SisoParams, SnrValue
from pilotbounds.siso import (
    asymptote_j1,
    asymptote_j2,
    capacity_csi,
    joint_bound_j1,
    joint_bound_j2,
    optimize_pilots_joint,
    power_advantage_asymptotic,
    power_advantage_at_snr,
    true_capacity_gap,
)
from pilotbounds.sweeps import CONVERGENCE_DEFAULT_T_GRID, convergence_table


def _report(num: int, message: str) -> None:
    print(f"[acceptance {num:02d}] PASS {message}")


def _per_call_ms(fn, repeats: int = 200) -> float:
    fn()  # warm up
    t0 = time.perf_counter()
    for _ in range(repeats):
        fn()
    return (time.perf_counter() - t0) / repeats * 1e3


def _ordering_grid():
    for snr_db in (-10.0, 0.0, 10.0, 20.0, 30.0):
        for T in (2, 4, 10, 20, 50, 100):
            for tau in sorted({0, 1, 2, min(5, T - 1)}):
                if tau < T:
                    yield snr_db, T, tau


def test_c01_asymptote_gap_is_small():
    # the two joint-bound power offsets at T=10 differ by only ~0.02 dB
    gap_db = (asymptote_j2(10) - asymptote_j1(10)) * DB_PER_UNIT
    ms = _per_call_ms(lambda: (asymptote_j2(10) - asymptote_j1(10)) * DB_PER_UNIT)
    assert 0.015 <= gap_db <= 0.025
    assert ms < 1.0
    _report(1, f"asymptote gap {gap_db:.4f} dB in [0.015, 0.025] ({ms:.3f} ms/call)")


def test_c02_true_capacity_gap_values():
    g10 = true_capacity_gap(10).gap_stirling.value_db
    g100 = true_capacity_gap(100).gap_stirling.value_db
    ms = _per_call_ms(lambda: true_capacity_gap(100).gap_stirling.value_db)
    assert abs(g10 - 0.5556) <= 0.01
    assert abs(g100 - 0.1010) <= 0.005
    assert ms < 1.0
    _report(2, f"gap to true capacity {g10:.4f} dB at T=10, {g100:.4f} dB at T=100 ({ms:.3f} ms/call)")


def test_c03_bound_ordering_zero_violations():
    t0 = time.perf_counter()
    points = 0
    for snr_db, T, tau in _ordering_grid():
        snr = SnrValue.from_db(snr_db)
        p = SisoParams(T=T, tau=tau, snr=snr)
        pre = (1.0 - tau / T) * capacity_csi(snr)
        j1 = joint_bound_j1(p)
        j2 = joint_bound_j2(p)
        assert j2 <= j1 <= pre, (snr_db, T, tau)
        points += 1
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    _report(3, f"j2 <= j1 <= prelog*C at all {points} grid points ({elapsed:.3f} s)")


def test_c04_closed_form_matches_monte_carlo():
    cfg = McConfig(samples=1_000_000, seed=2024)
    t0 = time.perf_counter()
    worst = 0.0
    for i, (snr_db, T, tau) in enumerate(_ordering_grid()):
        snr = SnrValue.from_db(snr_db)
        est = sample_penalty_term(T, tau, snr, cfg.substream(i))
        mc_j1 = (1.0 - tau / T) * capacity_csi(snr) - est.mean / T
        closed = joint_bound_j1(SisoParams(T=T, tau=tau, snr=snr))
        se = est.std_error / T
        assert abs(closed - mc_j1) <= 4.0 * se, (snr_db, T, tau)
        worst = max(worst, abs(closed - mc_j1) / se)
    elapsed = time.perf_counter() - t0
    assert elapsed < 120.0
    _report(4, f"j1 closed form within 4 SE of 1e6-sample MC everywhere, worst z={worst:.2f} ({elapsed:.1f} s)")


def test_c05_single_pilot_is_optimal():
    for snr_db in (-10.0, -5.0, 0.0, 10.0, 20.0, 30.0):
        snr = SnrValue.from_db(snr_db)
        for T in (4, 10, 20, 50):
            assert optimize_pilots_joint(T, snr).tau_star == 1, (snr_db, T)
            if snr_db >= 10.0:
                p1 = joint_bound_j1(SisoParams(T=T, tau=1, snr=snr))
                p2 = joint_bound_j1(SisoParams(T=T, tau=2, snr=snr))
                assert p2 < p1, (snr_db, T)
    _report(5, "tau*=1 on the whole grid; tau=2 strictly worse at >= 10 dB")


def test_c06_capacity_gap_decay_rates():
    table = convergence_table(CONVERGENCE_DEFAULT_T_GRID, SnrValue(10.0))
    last_decade = [row for row in table.rows if row[0] >= 1000]
    assert len(last_decade) >= 4
    sep_scaled = [row[2] for row in last_decade]
    j2_scaled = [row[4] for row in last_decade]
    assert all(v > 0.0 for v in sep_scaled + j2_scaled)
    sep_ratio = max(sep_scaled) / min(sep_scaled)
    j2_ratio = max(j2_scaled) / min(j2_scaled)
    assert j2_ratio <= 1.5
    assert sep_ratio <= 2.0
    _report(6, f"(C-I_J2)*T/log2(T) ratio {j2_ratio:.3f} <= 1.5, (C-I_S)*sqrt(T) ratio {sep_ratio:.3f} <= 2 over last decade")


def test_c07_advantage_monotone_in_snr():
    t0 = time.perf_counter()
    for T in range(2, 101):
        a10 = power_advantage_at_snr(T, SnrValue.from_db(10.0)).value_db
        a20 = power_advantage_at_snr(T, SnrValue.from_db(20.0)).value_db
        asym = power_advantage_asymptotic(T).value_db
        assert a10 <= a20 <= asym, T
    elapsed = time.perf_counter() - t0
    asym10 = power_advantage_asymptotic(10).value_db
    assert abs(asym10 - 1.899) <= 0.001
    assert power_advantage_asymptotic(2).value_3db_units == 0.0
    assert elapsed < 10.0
    _report(7, f"advantage(10dB) <= advantage(20dB) <= asymptote for T=2..100; asymptote(10)={asym10:.4f} dB ({elapsed:.2f} s)")


def test_c08_mimo_reduces_to_scalar_and_low_snr_expansion():
    cfg = McConfig(samples=100_000, seed=31)
    checked = 0
    for T in (4, 10):
        for tau in (0, 1, 2):
            for s in (0.1, 1.0, 10.0, 100.0):
                p = MimoParams(n_t=1, n_r=1, T=T, tau=tau, snr=SnrValue(s))
                sp = SisoParams(T=T, tau=tau, snr=SnrValue(s))
                assert mimo_joint_j1(p, cfg).mean == joint_bound_j1(sp)
                assert mimo_joint_j2(p, cfg).mean == joint_bound_j2(sp)
                checked += 1
    assert capacity_ctr(1, 1, SnrValue(1.0), cfg).mean == capacity_csi(SnrValue(1.0))
    rho = 1e-3
    est = sample_ctr(2, 2, SnrValue(rho), cfg)
    model = 2.0 * LOG2E * (rho - (2.0 + 2.0) / (2.0 * 2.0) * rho * rho)
    z = abs(est.mean - model) / est.std_error
    assert z <= 4.0
    _report(8, f"n=1 bounds reduce bit-exactly at {checked} points; 2x2 low-SNR expansion z={z:.2f}")


def test_c09_uniform_pilot_gram_is_minimal():
    p = MimoParams(n_t=2, n_r=2, T=6, tau=2, snr=SnrValue(10.0))
    perturbations = ((2.5, 1.5), (3.0, 1.0), (4.0, 0.0))
    t0 = time.perf_counter()
    report = pilot_gram_optimality_check(p, perturbations, McConfig(samples=100_000, seed=8))
    elapsed = time.perf_counter() - t0
    assert report.uniform_is_minimal
    for row in report.rows:
        assert row.uniform_not_larger
        assert row.excess_over_uniform >= -4.0 * row.combined_std_error
    margins = ", ".join(
        f"{row.excess_over_uniform / row.combined_std_error:.0f}" for row in report.rows
    )
    assert elapsed < 60.0
    _report(9, f"uniform Gram minimal; perturbation excesses at {margins} SE ({elapsed:.1f} s)")


def _run_cli(argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = cli.main(argv)
    return rc, buf.getvalue()


def test_c10_validation_is_reproducible():
    base = ["validate", "--seed", "42", "--samples", "200000"]
    rc1, out1 = _run_cli(list(base))
    rc2, out2 = _run_cli(list(base))
    assert rc1 == rc2 == 0
    assert out1 == out2  # byte-identical reruns
    assert out1.endswith("PASS (all |z| <= 4)\n")
    rc_a, rows_1 = _run_cli(base + ["--workers", "1", "--format", "csv"])
    rc_b, rows_8 = _run_cli(base + ["--workers", "8", "--format", "csv"])
    assert rc_a == rc_b == 0
    assert rows_1 == rows_8  # --workers is checked and changes nothing
    _report(10, "validate reruns byte-identical; --workers 1 and 8 estimates bit-equal")
