import math

import mpmath as mp
import pytest

from pilotbounds import mimo
from pilotbounds.expint import LOG2E, expint_scaled_sum
from pilotbounds.mimo import (
    _ctr_value,
    _scan_candidates,
    capacity_ctr,
    mimo_joint_j1,
    mimo_joint_j2,
    mimo_optimize_pilots,
    mimo_power_advantage_asymptotic,
    mimo_separate,
    pilot_gram_optimality_check,
)
from pilotbounds.montecarlo import Estimate, McConfig, sample_ctr, sample_delta_mimo
from pilotbounds.params import MimoParams, SisoParams, SnrValue
from pilotbounds.siso import (
    capacity_csi,
    joint_bound_j1,
    joint_bound_j2,
    optimize_pilots_joint,
    power_advantage_asymptotic,
    separate_bound,
)

CFG = McConfig(samples=50_000, seed=42)

# reference values from mpmath at 50 digits
REL = 5e-13


def test_rank_one_capacity_reference_values():
    c41 = capacity_ctr(4, 1, SnrValue(1.0), CFG)
    assert c41.mean == pytest.approx(0.9580091153092732, rel=REL)
    assert c41.std_error == 0.0 and c41.samples_used == 0
    c14 = capacity_ctr(1, 4, SnrValue(1.0), CFG)
    assert c14.mean == pytest.approx(2.2103758486089133, rel=REL)


def test_single_antenna_capacity_matches_scalar_exactly():
    for s in (0.1, 1.0, 10.0, 100.0):
        est = capacity_ctr(1, 1, SnrValue(s), CFG)
        assert est.mean == capacity_csi(SnrValue(s))


def test_matrix_capacity_matches_rank_one_closed_form():
    for t, r in ((1, 3), (3, 1)):
        est = sample_ctr(t, r, SnrValue(10.0), CFG)
        closed = capacity_ctr(t, r, SnrValue(10.0), CFG).mean
        assert abs(est.mean - closed) < 5.0 * est.std_error


# s = 1e-10 and T = 100 reach the SNRs and blocklengths where the bounds
# cancel most, so any reordered operation would show in the last bits
@pytest.mark.parametrize("T", [4, 10, 100])
@pytest.mark.parametrize("tau", [0, 1, 2])
@pytest.mark.parametrize("s", [1e-10, 0.1, 1.0, 10.0, 100.0, 1e4])
def test_single_antenna_joint_bounds_reduce_exactly(T, tau, s):
    # not approximately: the single-antenna path must reproduce the
    # scalar bounds bit for bit
    p = MimoParams(n_t=1, n_r=1, T=T, tau=tau, snr=SnrValue(s))
    sp = SisoParams(T=T, tau=tau, snr=SnrValue(s))
    j1 = mimo_joint_j1(p, CFG)
    j2 = mimo_joint_j2(p, CFG)
    assert j1.mean == joint_bound_j1(sp)
    assert j2.mean == joint_bound_j2(sp)
    assert j1.std_error == 0.0 and j1.samples_used == 0


@pytest.mark.parametrize("T", [4, 10, 100])
@pytest.mark.parametrize("s", [1e-10, 1.0, 10.0, 1e4])
def test_single_antenna_separate_reduces_exactly(T, s):
    res = mimo_separate(1, 1, T, SnrValue(s), CFG)
    ref = separate_bound(T, SnrValue(s))
    assert res.value.mean == ref.value
    assert res.tau_star == ref.tau_star
    assert res.tie_within_margin is False


def test_single_antenna_optimizer_reduces_exactly():
    for T in (2, 10, 100):
        for s in (1e-10, 1.0, 10.0, 1e4):
            res = mimo_optimize_pilots(1, T, SnrValue(s), CFG)
            ref = optimize_pilots_joint(T, SnrValue(s))
            assert res.tau_star == ref.tau_star
            assert res.value.mean == ref.value
            assert res.tau_star_continuous == ref.tau_star_continuous


@pytest.mark.parametrize("n_t,n_r", [(1, 3), (2, 3), (3, 5), (4, 6)])
@pytest.mark.parametrize("db", [-10.0, 10.0, 30.0])
def test_joint_bound_without_pilots_over_n_r_symbols_is_zero(n_t, n_r, db):
    # at tau = 0 and T = n_r the penalty n_r/T * C_{n_t,T} is the
    # capacity term itself, so j1 is exactly C - C
    p = MimoParams(n_t=n_t, n_r=n_r, T=n_r, tau=0, snr=SnrValue.from_db(db))
    assert mimo_joint_j1(p, CFG).mean == 0.0


def test_joint_bound_ordering_two_by_two():
    cfg = McConfig(samples=50_000, seed=7)
    for db in (0.0, 10.0):
        p = MimoParams(n_t=2, n_r=2, T=10, tau=2, snr=SnrValue.from_db(db))
        j1 = mimo_joint_j1(p, cfg)
        j2 = mimo_joint_j2(p, cfg)
        margin = 4.0 * math.hypot(j1.std_error, j2.std_error)
        assert j2.mean <= j1.mean + margin


def test_low_snr_capacity_expansion():
    # E[log det] ~ r log2(e) (rho - (t+r)/(2t) rho^2) for small rho
    rho = 1e-3
    est = sample_ctr(2, 2, SnrValue(rho), McConfig(samples=100_000, seed=3))
    model = 2.0 * LOG2E * (rho - (2.0 + 2.0) / (2.0 * 2.0) * rho**2)
    assert abs(est.mean - model) < 5.0 * est.std_error


def _record_sampler(monkeypatch):
    """Route mimo's sample_ctr through a recorder of (t, r, cfg)."""
    calls = []

    def recording(t, r, rho, cfg, workers=1):
        calls.append((t, r, cfg))
        return sample_ctr(t, r, rho, cfg, workers)

    monkeypatch.setattr(mimo.mc, "sample_ctr", recording)
    return calls


def test_separate_uses_common_draws_across_pilot_counts(monkeypatch):
    # 12 x 12 is sampled; the same cfg for every candidate keeps the argmax stable
    cfg = McConfig(samples=2000, seed=5)
    calls = _record_sampler(monkeypatch)
    a = mimo_separate(12, 12, 16, SnrValue(10.0), cfg)
    assert calls == [(12, 12, cfg)] * 4
    assert a == mimo_separate(12, 12, 16, SnrValue(10.0), cfg)
    assert a.value.samples_used == 2000 and a.value.std_error > 0.0
    assert 12 <= a.tau_star <= 15


def test_optimizer_square_sampled(monkeypatch):
    # C_{12,12} and the tau = 0 penalty C_{12,16} are sampled, the
    # penalties C_{12,T-tau} with T - tau <= 4 exact; the value at tau* is
    # j1 there
    cfg = McConfig(samples=2000, seed=1)
    snr = SnrValue(10.0)
    calls = _record_sampler(monkeypatch)
    res = mimo_optimize_pilots(12, 16, snr, cfg)
    assert calls == [(12, 12, cfg), (12, 16, cfg.substream(1))]
    assert res.value.samples_used == 2000 and res.value.std_error > 0.0
    assert res.tau_star in (0, 12, 13, 14, 15)
    for tau in (0, 12, 13, 14, 15):
        j1 = mimo_joint_j1(MimoParams(n_t=12, n_r=12, T=16, tau=tau, snr=snr), cfg)
        if tau == res.tau_star:
            assert j1 == res.value
        else:
            margin = 4.0 * math.hypot(j1.std_error, res.value.std_error)
            assert j1.mean <= res.value.mean + margin


def test_joint_bound_ordering_sampled():
    cfg = McConfig(samples=2000, seed=7)
    for db in (0.0, 10.0):
        p = MimoParams(n_t=12, n_r=12, T=16, tau=12, snr=SnrValue.from_db(db))
        j1 = mimo_joint_j1(p, cfg)
        j2 = mimo_joint_j2(p, cfg)
        assert j1.samples_used == j2.samples_used == 2000 and j2.std_error > 0.0
        margin = 4.0 * math.hypot(j1.std_error, j2.std_error)
        assert j2.mean <= j1.mean + margin


def test_scan_candidates_resolves_ties_toward_fewer_pilots():
    est = [Estimate(1.0, 0.01, 1), Estimate(1.02, 0.01, 1), Estimate(1.1, 0.01, 1)]
    # the margin is 4 * hypot(0.01, 0.01) = 0.057: a gap of 0.08 is outside it
    assert _scan_candidates(est) == (2, False)
    est[1] = Estimate(1.07, 0.01, 1)  # a gap of 0.03 is inside it
    assert _scan_candidates(est) == (1, True)
    # exact candidates: tau* is the first argmax
    assert _scan_candidates([Estimate(v, 0.0, 0) for v in (1.0, 2.0, 2.0)]) == (1, False)


def test_optimizer_square_two_by_two():
    res = mimo_optimize_pilots(2, 20, SnrValue(10.0), McConfig(samples=100_000, seed=1))
    assert res.tau_star == 2
    assert res.value.mean == pytest.approx(4.3700, abs=0.03)
    assert 0.0 < res.tau_star_continuous < 2.0


def test_optimizer_rejects_snr_below_sampler_resolution():
    # 12 x 12 is sampled (see test_guard_sends_large_sizes_to_the_sampler),
    # and every sampled log2 det rounds to 0 at -400 dB
    with pytest.raises(ValueError, match="sampled capacity is 0"):
        mimo_optimize_pilots(12, 13, SnrValue(1e-40), McConfig(samples=100))


def test_optimizer_exact_at_vanishing_snr():
    # the exact path resolves C_{2,2} at -400 dB: C ~ r * rho * log2(e)
    res = mimo_optimize_pilots(2, 4, SnrValue(1e-40), McConfig(samples=100))
    assert res.value.samples_used == 0 and res.tau_star in (0, 2, 3)
    assert math.isfinite(res.value.mean) and math.isfinite(res.tau_star_continuous)
    c = capacity_ctr(2, 2, SnrValue(1e-40), CFG)
    assert c.samples_used == 0
    assert c.mean == pytest.approx(2e-40 * LOG2E, rel=1e-12)


def test_effective_blocklength_identity():
    # n antennas over T symbols behave like one antenna over T/n blocks
    assert (
        mimo_power_advantage_asymptotic(2, 20).value_3db_units
        == power_advantage_asymptotic(10).value_3db_units
    )
    # effective blocklength 2 is the break-even point, as in the scalar case
    assert mimo_power_advantage_asymptotic(2, 4).value_3db_units == 0.0
    with pytest.raises(ValueError):
        mimo_power_advantage_asymptotic(4, 4)


def test_gram_check_uniform_is_minimal():
    p = MimoParams(n_t=2, n_r=2, T=6, tau=2, snr=SnrValue(10.0))
    report = pilot_gram_optimality_check(
        p, [(2.5, 1.5), (3.0, 1.0), (4.0, 0.0)], McConfig(samples=20_000, seed=2)
    )
    assert report.uniform_is_minimal
    assert all(r.uniform_not_larger for r in report.rows)
    assert all(r.excess_over_uniform > 0.0 for r in report.rows)


def test_gram_check_uniform_against_itself_is_exact_zero():
    # common random numbers: resubmitting the uniform diagonal cancels exactly
    p = MimoParams(n_t=2, n_r=2, T=6, tau=2, snr=SnrValue(10.0))
    report = pilot_gram_optimality_check(p, [(2.0, 2.0)], McConfig(samples=5_000, seed=2))
    assert report.rows[0].excess_over_uniform == 0.0
    assert report.rows[0].uniform_not_larger


@pytest.mark.parametrize("workers", [1, 2])
def test_gram_check_rows_equal_separate_sampler_calls(workers):
    # X is drawn once for all diagonals; each estimate keeps the bits of
    # its own sample_delta_mimo call with the same cfg
    p = MimoParams(n_t=2, n_r=2, T=6, tau=2, snr=SnrValue(10.0))
    cfg = McConfig(samples=20_000, seed=2)
    perturbations = [(2.5, 1.5), (3.0, 1.0), (4.0, 0.0)]
    report = pilot_gram_optimality_check(p, perturbations, cfg, workers)
    assert report.uniform == sample_delta_mimo(p, (2.0, 2.0), cfg)
    for row, diag in zip(report.rows, perturbations):
        assert row.diagonal == diag
        assert row.estimate == sample_delta_mimo(p, diag, cfg)


def test_capacity_ctr_validation():
    with pytest.raises(ValueError):
        capacity_ctr(0, 1, SnrValue(1.0), CFG)
    with pytest.raises(ValueError):
        capacity_ctr(1, True, SnrValue(1.0), CFG)


def test_mimo_separate_needs_room_for_pilots():
    with pytest.raises(ValueError):
        mimo_separate(2, 2, 2, SnrValue(1.0), CFG)


@pytest.mark.parametrize("n_t,n_r", [(0, 1), (-1, 1), (1, 0), (1.0, 1)])
def test_mimo_separate_validates_antenna_counts(n_t, n_r):
    # n_t = 0 would divide by zero, n_t = -1 would search negative pilot counts
    with pytest.raises(ValueError):
        mimo_separate(n_t, n_r, 4, SnrValue(1.0), CFG)


def _telatar_quad(t, r, db):
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
        rho = mp.mpf(10) ** (mp.mpf(db) / 10)
        value = mp.quad(
            lambda lam: mp.log1p(rho * lam / t) * density(lam),
            [0, 1, n, 2 * n + 4, 4 * n + 20, mp.inf],
        )
        return float(value / mp.log(2))


# every size here is admitted by the guard at every SNR; r runs up to
# 20 as the penalty term C_{n_t, T-tau} does for T - tau <= 20
_EXACT_SIZES = [
    (2, 2), (2, 3), (3, 2), (3, 3), (4, 2), (2, 4), (4, 4), (3, 8), (4, 8),
    (2, 16), (3, 16), (4, 16), (16, 4), (5, 5), (6, 6), (7, 7),
    (8, 8), (9, 9), (8, 11), (6, 20), (20, 6),
]


@pytest.mark.parametrize("t,r", _EXACT_SIZES)
def test_exact_capacity_matches_quadrature(t, r):
    for db in (-30.0, 0.0, 30.0, 60.0):
        est = capacity_ctr(t, r, SnrValue.from_db(db), CFG)
        assert est.std_error == 0.0 and est.samples_used == 0
        assert est.mean == pytest.approx(_telatar_quad(t, r, db), rel=1e-10, abs=0.0)


@pytest.mark.parametrize("t,r", [(2, 2), (2, 3), (3, 3), (4, 4)])
@pytest.mark.parametrize("db", [0.0, 10.0, 30.0])
def test_exact_capacity_matches_sampler(t, r, db):
    # the sampler shares no code with the Laguerre sum
    snr = SnrValue.from_db(db)
    est = sample_ctr(t, r, snr, McConfig(samples=20_000, seed=11))
    assert abs(capacity_ctr(t, r, snr, CFG).mean - est.mean) <= 4.0 * est.std_error


@pytest.mark.parametrize("t,r", [(1, 1), (1, 4), (4, 1), (1, 16), (16, 1)])
@pytest.mark.parametrize("s", [1e-10, 0.1, 1.0, 10.0, 1e6])
def test_rank_one_capacity_is_the_scalar_sum(t, r, s):
    n = max(t, r)
    assert capacity_ctr(t, r, SnrValue(s), CFG).mean == LOG2E * expint_scaled_sum(n, t / s)
    # the penalty term passes its sum argument t/rho directly
    x = 2.0 + t / s
    assert _ctr_value(t, r, s / (1.0 + 2.0 * s / t), CFG, x=x).mean == LOG2E * expint_scaled_sum(n, x)


# the largest max(t, r) the guard admits at every SNR, per min(t, r),
# as measured over t, r <= 20 and -400...300 dB
_ADMITTED = {1: 20, 2: 20, 3: 20, 4: 20, 5: 20, 6: 20, 7: 13, 8: 11, 9: 9}


def test_guard_admits_the_measured_region_at_every_snr():
    # among them the sizes the pilot searches reach with n <= 6 and
    # T - tau <= 20
    for m, largest in _ADMITTED.items():
        for n in range(m, largest + 1):
            for db in range(-400, 301, 50):
                assert capacity_ctr(m, n, SnrValue.from_db(db), CFG).samples_used == 0
                assert capacity_ctr(n, m, SnrValue.from_db(db), CFG).samples_used == 0


@pytest.mark.parametrize("n", [12, 16])
def test_guard_sends_large_sizes_to_the_sampler(n):
    cfg = McConfig(samples=2000, seed=3)
    for s in (1.0, 100.0):
        est = capacity_ctr(n, n, SnrValue(s), cfg, workers=2)
        assert est == sample_ctr(n, n, SnrValue(s), cfg)
        assert est.samples_used == 2000


def _first_argmax(values):
    return max(range(len(values)), key=lambda i: (values[i], -i))


@pytest.mark.parametrize("n_t,n_r,T", [(2, 2, 12), (2, 3, 9), (3, 2, 16), (4, 4, 20)])
@pytest.mark.parametrize("db", [-10.0, 10.0, 30.0])
def test_exact_separate_search(n_t, n_r, T, db):
    s = SnrValue.from_db(db).linear
    taus = range(n_t, T)
    values = []
    for tau in taus:
        mmse = 1.0 / (1.0 + s * (tau / n_t))
        eff = s * (1.0 - mmse) / (1.0 + s * mmse)
        values.append((1.0 - tau / T) * capacity_ctr(n_t, n_r, eff, CFG).mean)
    best = _first_argmax(values)
    res = mimo_separate(n_t, n_r, T, s, McConfig(samples=100, seed=1))
    assert res == mimo_separate(n_t, n_r, T, s, McConfig(samples=5000, seed=2))
    assert res.tau_star == taus[best] and res.value.mean == values[best]
    assert res.value.std_error == 0.0 and res.value.samples_used == 0
    assert res.tie_within_margin is False


@pytest.mark.parametrize("n,T", [(2, 12), (3, 16), (4, 20)])
@pytest.mark.parametrize("db", [-10.0, 10.0, 30.0])
def test_exact_pilot_search(n, T, db):
    snr = SnrValue.from_db(db)
    taus = [0] + list(range(n, T))
    values = [
        mimo_joint_j1(MimoParams(n_t=n, n_r=n, T=T, tau=tau, snr=snr), CFG).mean
        for tau in taus
    ]
    best = _first_argmax(values)
    res = mimo_optimize_pilots(n, T, snr, McConfig(samples=100, seed=1))
    assert res == mimo_optimize_pilots(n, T, snr, McConfig(samples=5000, seed=2))
    assert res.tau_star == taus[best] and res.value.mean == values[best]
    assert res.value.std_error == 0.0 and res.value.samples_used == 0
    assert res.tie_within_margin is False
