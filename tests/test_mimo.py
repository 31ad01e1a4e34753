import math

import pytest

from pilotbounds.expint import LOG2E
from pilotbounds.mimo import (
    capacity_ctr,
    mimo_joint_j1,
    mimo_joint_j2,
    mimo_optimize_pilots,
    mimo_power_advantage_asymptotic,
    mimo_separate,
    pilot_gram_optimality_check,
)
from pilotbounds.montecarlo import McConfig, sample_ctr
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


@pytest.mark.parametrize("T", [4, 10])
@pytest.mark.parametrize("tau", [0, 1, 2])
@pytest.mark.parametrize("s", [0.1, 1.0, 10.0, 100.0])
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


@pytest.mark.parametrize("T", [4, 10])
@pytest.mark.parametrize("s", [1.0, 10.0])
def test_single_antenna_separate_reduces_exactly(T, s):
    res = mimo_separate(1, 1, T, SnrValue(s), CFG)
    ref = separate_bound(T, SnrValue(s))
    assert res.value.mean == ref.value
    assert res.tau_star == ref.tau_star
    assert res.tie_within_margin is False


def test_single_antenna_optimizer_reduces_exactly():
    for s in (1.0, 10.0):
        res = mimo_optimize_pilots(1, 10, SnrValue(s), CFG)
        ref = optimize_pilots_joint(10, SnrValue(s))
        assert res.tau_star == ref.tau_star
        assert res.value.mean == ref.value
        assert res.tau_star_continuous == ref.tau_star_continuous


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


def test_separate_uses_common_draws_across_pilot_counts():
    # same substream for every candidate keeps the argmax stable
    a = mimo_separate(2, 2, 8, SnrValue(10.0), McConfig(samples=20_000, seed=5))
    b = mimo_separate(2, 2, 8, SnrValue(10.0), McConfig(samples=20_000, seed=5))
    assert a == b
    assert 2 <= a.tau_star <= 7


def test_optimizer_square_two_by_two():
    res = mimo_optimize_pilots(2, 20, SnrValue(10.0), McConfig(samples=100_000, seed=1))
    assert res.tau_star == 2
    assert res.value.mean == pytest.approx(4.3700, abs=0.03)
    assert 0.0 < res.tau_star_continuous < 2.0


def test_optimizer_rejects_snr_below_sampler_resolution():
    # every sampled log2 det rounds to 0 at -400 dB
    with pytest.raises(ValueError, match="sampled capacity is 0"):
        mimo_optimize_pilots(2, 4, SnrValue(1e-40), McConfig(samples=100))


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
