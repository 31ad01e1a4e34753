import math
from dataclasses import replace

import pytest

from pilotbounds import mimo
from pilotbounds.montecarlo import (
    McConfig,
    _sample_capacity_rows,
    _sample_ctr_rows,
    _sample_penalty_terms,
    sample_capacity_siso,
    sample_ctr,
    sample_penalty_term,
)
from pilotbounds.params import MimoParams, SisoParams, SnrValue
from pilotbounds.sweeps import (
    CONVERGENCE_DEFAULT_T_GRID,
    FIG1_DEFAULT_SNR_DB,
    FIG1_DEFAULT_T_GRID,
    FIG2_DEFAULT_T_GRID,
    convergence_table,
    sweep_fig1,
    sweep_fig2,
    validate_all,
)
from pilotbounds import siso

SMALL_CFG = McConfig(samples=20_000, seed=42)


@pytest.mark.parametrize("sweep", [sweep_fig1, sweep_fig2, convergence_table])
def test_sweeps_reject_short_or_unsorted_grids(sweep):
    for grid in ((), (200,), (2, 2, 400), (400, 2), (2, 400.0)):
        with pytest.raises(ValueError):
            sweep(grid)


@pytest.mark.parametrize("sweep", [sweep_fig1, sweep_fig2])
def test_sweeps_reject_empty_snr_list(sweep):
    # an empty list gave a table with no rows
    with pytest.raises(ValueError, match="SNR list"):
        sweep((2, 4), ())


def test_fig1_shape_and_values():
    table = sweep_fig1()
    assert table.columns == (
        "snr_db", "T", "capacity", "separate", "separate_tau_star", "joint_j1_tau1",
    )
    assert len(table.rows) == len(FIG1_DEFAULT_T_GRID) * len(FIG1_DEFAULT_SNR_DB)
    for row in table.rows:
        db, T, cap, sep, tau_star, j1 = row
        snr = SnrValue.from_db(db)
        assert cap == siso.capacity_csi(snr)
        assert j1 == siso.joint_bound_j1(SisoParams(T=T, tau=1, snr=snr))
        ref = siso.separate_bound(T, snr)
        assert (sep, tau_star) == (ref.value, ref.tau_star)
        assert j1 <= cap and sep <= cap


def test_fig1_rejects_bad_grid():
    with pytest.raises(ValueError):
        sweep_fig1(T_grid=(1, 2, 4))
    with pytest.raises(ValueError):
        sweep_fig1(T_grid=(4, 2))


def test_fig2_values():
    table = sweep_fig2(T_grid=(2, 10, 100), snr_db_list=(10.0,))
    assert table.columns == ("T", "asymptote_db", "advantage_10dB_db")
    by_T = {row[0]: row for row in table.rows}
    assert by_T[2][1] == 0.0
    assert by_T[10][1] == pytest.approx(1.899188845528701, rel=1e-12)
    assert by_T[10][2] == pytest.approx(1.7192, abs=2e-4)
    # finite-SNR advantage sits below the asymptote for long blocks
    assert by_T[100][2] < by_T[100][1]
    assert len(FIG2_DEFAULT_T_GRID) >= 20
    assert FIG2_DEFAULT_T_GRID[0] == 2 and FIG2_DEFAULT_T_GRID[-1] == 100


def test_fig2_and_convergence_equal_the_public_functions_bit_for_bit():
    # the sweeps form capacity once per SNR and pass it to the private
    # j1, j2 and offset helpers, and take every T's separate bound from one
    # array of lanes per SNR; every value stays the public functions'
    dbs = (-20.0, 0.0, 10.0, 27.5)
    grid = (2, 3, 10, 51, 200)
    for row in sweep_fig2(T_grid=grid, snr_db_list=dbs).rows:
        T = row[0]
        assert row[2:] == tuple(siso.power_advantage_at_snr(T, SnrValue.from_db(db)).value_db for db in dbs)
    # at -105 dB j1 takes its series up to T = 200 (snr*T <= 1e-8) and the
    # kernel's penalty at T = 1000
    for db, T, cap, sep, tau_star, j1 in sweep_fig1(T_grid=(*grid, 1000), snr_db_list=(-105.0, *dbs)).rows:
        snr = SnrValue.from_db(db)
        assert cap == siso.capacity_csi(snr)
        assert (sep, tau_star) == siso.separate_bound(T, snr)
        assert j1 == siso.joint_bound_j1(SisoParams(T=T, tau=1, snr=snr))
    # at 0 dB every lane takes eps_1's continued fraction: the 999 lanes of
    # T = 1000 run the vector form, while a lone separate_bound at T = 64 or
    # 65 (63 or 64 lanes, up to _SCALAR_LANES) runs the scalar one and at 66
    # the vector one; at 2.5 dB all but two lanes take the series
    crossing = (2, 64, 65, 66, 128, 1000)
    for db, conv_grid in [(0.0, crossing), (2.5, crossing)] + [(db, grid) for db in dbs]:
        snr = SnrValue.from_db(db)
        c = siso.capacity_csi(snr)
        for T, gap_sep, sep_scaled, gap_j2, j2_scaled in convergence_table(T_grid=conv_grid, snr=snr).rows:
            assert gap_sep == c - siso.separate_bound(T, snr).value
            assert sep_scaled == gap_sep * math.sqrt(T)
            assert gap_j2 == c - siso.joint_bound_j2(SisoParams(T=T, tau=1, snr=snr))
            assert j2_scaled == gap_j2 * T / math.log2(T)


def test_fig2_keeps_the_target_check():
    # snr*T overflows: the target's check raises before any offset work
    with pytest.raises(ValueError, match="snr\\*T overflows"):
        sweep_fig2(T_grid=(2, 4), snr_db_list=(3080.0,))


def test_convergence_table_values_and_span_check():
    assert CONVERGENCE_DEFAULT_T_GRID[0] == 10
    assert CONVERGENCE_DEFAULT_T_GRID[-1] == 10000
    table = convergence_table(T_grid=(10, 100, 1000), snr=SnrValue(10.0))
    for T, gap_sep, sep_scaled, gap_j2, j2_scaled in table.rows:
        assert gap_sep > 0.0 and gap_j2 > 0.0
        assert sep_scaled == pytest.approx(gap_sep * math.sqrt(T), rel=0)
        assert j2_scaled == pytest.approx(gap_j2 * T / math.log2(T), rel=0)
    with pytest.raises(ValueError):
        convergence_table(T_grid=(10, 99), snr=SnrValue(10.0))


def test_validate_all_passes_and_is_deterministic():
    a = validate_all(SMALL_CFG)
    b = validate_all(SMALL_CFG)
    assert a.passed
    assert a.max_abs_z <= 4.0
    assert a == b
    # every pairing family is represented
    names = [c.name for c in a.cells]
    for prefix in ("capacity[", "penalty_term[", "ctr_rank1[", "reduction_", "gram_minimal["):
        assert any(n.startswith(prefix) for n in names)
    text = a.render()
    assert "PASS" in text and f"seed={SMALL_CFG.seed}" in text


# Four cells of validate_all(McConfig(samples=16384, seed=11)), (reference,
# estimate, std_error) in hex: capacity, the penalty row bench/test_bench.py
# plants on, a tau_max penalty row (bit-equal to its one-row call) and a
# rank-1 row.  A change that re-keys validate's draws fails here; re-pin
# it on purpose and list the old and new values in CHANGES.md.
_VALIDATE_PINS = {
    "capacity[snr_db=0]": ("0x1.b87f73bc1af57p-1", "0x1.bb0b0d3846ca2p-1", "0x1.38a594afde86ep-8"),
    "penalty_term[T=2,tau=0,snr_db=-10]": ("0x1.03e7a44a0d807p-2", "0x1.036083919e990p-2", "0x1.45b597584b3b8p-10"),
    "penalty_term[T=20,tau=2,snr_db=10]": ("0x1.9d00facdb8139p+1", "0x1.9cb3bd09c1568p+1", "0x1.39ad9ef56c488p-9"),
    "ctr_rank1[t=1,r=4,rho_db=10]": ("0x1.4b96c4e1197d3p+2", "0x1.4dc2c0beaf037p+2", "0x1.253e04668af50p-6"),
}


def test_validate_all_pinned_cells():
    cells = {c.name: c for c in validate_all(McConfig(samples=16384, seed=11)).cells}
    for name, pinned in _VALIDATE_PINS.items():
        c = cells[name]
        assert (c.reference.hex(), c.estimate.hex(), c.std_error.hex()) == pinned, name


def test_validate_all_seed_variation_still_passes():
    assert validate_all(McConfig(samples=20_000, seed=7)).passed


def test_validate_all_catches_corrupted_closed_form(monkeypatch):
    # shift one closed form; the harness must flag the disagreement
    original = siso.capacity_csi
    monkeypatch.setattr(siso, "capacity_csi", lambda snr: original(snr) + 0.05)
    report = validate_all(SMALL_CFG)
    assert not report.passed
    assert "FAIL" in report.render()


def test_validate_all_catches_corrupted_reduction(monkeypatch):
    # even a one-ulp-scale break of the exact single-antenna reduction trips it
    original = siso.joint_bound_j1
    monkeypatch.setattr(siso, "joint_bound_j1", lambda p: original(p) + 1e-9)
    report = validate_all(SMALL_CFG)
    assert not report.passed
    assert math.isinf(report.max_abs_z)


@pytest.mark.parametrize("seed", [1, 2])
def test_validate_all_stream_map(seed):
    # Cells that draw alone, or first in a shared draw, equal a direct
    # one-row call on the substream of their group: capacity at -10 dB
    # on 1, the penalty cells of T's largest tau on 5, 7, 10, 13 (the
    # substreams of the tau=0 cells), the 0 dB rank-1 cells on 49, 51,
    # 53, Gram 57.  The others share those draws: each equals its row of
    # the rows sampler on that substream.
    cfg = replace(SMALL_CFG, seed=seed)
    report = validate_all(cfg)
    cells = {c.name: c for c in report.cells}

    def sub(index, samples=cfg.samples):
        return replace(cfg.substream(index), samples=samples)

    def check(name, est):
        assert (cells[name].estimate, cells[name].std_error) == (est.mean, est.std_error), name

    dbs = (-10.0, 0.0, 10.0, 20.0)
    snrs = [SnrValue.from_db(db) for db in dbs]
    names = [f"capacity[snr_db={db:g}]" for db in dbs]
    check(names[0], sample_capacity_siso(snrs[0], sub(1)))
    for name, est in zip(names, _sample_capacity_rows(snrs, sub(1))):
        check(name, est)
    groups = [(T, tau) for T in (2, 6, 10, 20) for tau in (0, 1, 2) if tau < T]
    names += [f"penalty_term[T={T},tau={tau},snr_db={db:g}]" for db in dbs for T, tau in groups]
    for T, k in ((2, 5), (6, 7), (10, 10), (20, 13)):
        taus = [tau for tau in (0, 1, 2) if tau < T]
        for snr, db in zip(snrs, dbs):
            est = sample_penalty_term(T, taus[-1], snr, sub(k))
            check(f"penalty_term[T={T},tau={taus[-1]},snr_db={db:g}]", est)
        rows = iter(_sample_penalty_terms(T, taus, snrs, sub(k)))
        for tau in taus:
            for db in dbs:
                check(f"penalty_term[T={T},tau={tau},snr_db={db:g}]", next(rows))
    rhos = (SnrValue.from_db(0.0), SnrValue.from_db(10.0))
    for (t, r), k in (((1, 1), 49), ((1, 4), 51), ((4, 1), 53)):
        check(f"ctr_rank1[t={t},r={r},rho_db=0]", sample_ctr(t, r, rhos[0], sub(k, 2000)))
        for db, est in zip((0.0, 10.0), _sample_ctr_rows(t, r, rhos, sub(k, 2000))):
            names.append(f"ctr_rank1[t={t},r={r},rho_db={db:g}]")
            check(names[-1], est)
    for db in (0.0, 10.0):
        sp = SisoParams(T=10, tau=2, snr=SnrValue.from_db(db))
        for label, fn in (("j1", siso.joint_bound_j1), ("j2", siso.joint_bound_j2)):
            names.append(f"reduction_{label}[T=10,tau=2,snr_db={db:g}]")
            cell = cells[names[-1]]
            assert cell.estimate == cell.reference == fn(sp)
    gram = mimo.pilot_gram_optimality_check(
        MimoParams(n_t=2, n_r=2, T=6, tau=2, snr=SnrValue(10.0)),
        ((2.5, 1.5), (3.0, 1.0), (4.0, 0.0)),
        sub(57, 2000),
    )
    for row in gram.rows:
        names.append(f"gram_minimal[diag={row.diagonal!r}]")
        cell = cells[names[-1]]
        assert (cell.reference, cell.estimate, cell.std_error) == (
            gram.uniform.mean, row.estimate.mean, row.combined_std_error
        )
    assert [c.name for c in report.cells] == names
    assert len(cells) == 61
