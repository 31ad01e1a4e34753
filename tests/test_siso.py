import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pilotbounds.expint import LOG2E
from pilotbounds.params import DB_PER_UNIT, SisoParams, SnrValue
from pilotbounds.siso import (
    _bisect,
    advantage_units,
    asymptote_j1,
    asymptote_j2,
    capacity_csi,
    joint_bound_j1,
    joint_bound_j2,
    mmse_estimate_variance,
    optimize_pilots_joint,
    power_advantage_asymptotic,
    power_advantage_at_snr,
    separate_bound,
    single_pilot_advantage,
    snr_effective,
    true_capacity_gap,
)

# reference values from mpmath at 50 digits
REL = 5e-13


def test_capacity_reference_values():
    assert capacity_csi(SnrValue(1.0)) == pytest.approx(0.8603473822708859, rel=REL)
    assert capacity_csi(SnrValue(10.0)) == pytest.approx(2.9065148084148045, rel=REL)


def test_capacity_accepts_plain_floats():
    assert capacity_csi(10.0) == capacity_csi(SnrValue(10.0))


def test_joint_bound_reference_values():
    p = SisoParams(T=10, tau=1, snr=SnrValue(1.0))
    assert joint_bound_j1(p) == pytest.approx(0.5336747154301325, rel=REL)
    assert joint_bound_j2(p) == pytest.approx(0.5283694821800675, rel=REL)
    p2 = SisoParams(T=2, tau=1, snr=SnrValue(1.0))
    assert joint_bound_j1(p2) == pytest.approx(0.16953018927748953, rel=REL)


def test_separate_bound_reference_values():
    res = separate_bound(10, SnrValue(1.0))
    assert res.tau_star == 3
    assert res.value == pytest.approx(0.418835858659, rel=1e-11)
    res = separate_bound(10, SnrValue(10.0))
    assert res.tau_star == 2
    assert res.value == pytest.approx(1.93565579383, rel=1e-10)
    res = separate_bound(2, SnrValue(1.0))
    assert res.tau_star == 1
    assert res.value == pytest.approx(0.189053456182, rel=1e-11)


def test_estimation_helpers():
    assert mmse_estimate_variance(1, SnrValue(1.0)) == pytest.approx(0.5, rel=0)
    # one pilot at snr 100: 100 * (100/101) / (1 + 100/101) = 10000/201
    assert snr_effective(1, SnrValue(100.0)).linear == pytest.approx(
        49.75124378109453, rel=REL
    )
    with pytest.raises(ValueError):
        mmse_estimate_variance(0, SnrValue(1.0))
    # 1 + snr*tau rounds to 1: the effective SNR is 0, reported as such
    with pytest.raises(ValueError, match="effective SNR at tau=1 rounds to 0"):
        snr_effective(1, SnrValue.from_db(-400.0))


@settings(max_examples=300, deadline=None)
@given(
    T=st.integers(min_value=2, max_value=100),
    tau=st.integers(min_value=0, max_value=5),
    log_snr=st.floats(min_value=-3.0, max_value=3.0),
)
def test_bound_ordering_property(T, tau, log_snr):
    # j2 <= j1 <= pre-log-weighted capacity, everywhere
    tau = min(tau, T - 1)
    p = SisoParams(T=T, tau=tau, snr=SnrValue(10.0**log_snr))
    cap = (1.0 - tau / T) * capacity_csi(p.snr)
    j1 = joint_bound_j1(p)
    j2 = joint_bound_j2(p)
    assert j2 <= j1 <= cap


def test_optimizer_prefers_single_pilot():
    for db in (-10.0, 0.0, 10.0, 30.0):
        for T in (4, 10, 50):
            res = optimize_pilots_joint(T, SnrValue.from_db(db))
            assert res.tau_star == 1
            assert res.value == joint_bound_j1(
                SisoParams(T=T, tau=1, snr=SnrValue.from_db(db))
            )


def test_optimizer_j2_variant():
    res = optimize_pilots_joint(10, SnrValue(10.0), which="j2")
    assert res.tau_star == 1
    with pytest.raises(ValueError):
        optimize_pilots_joint(10, SnrValue(10.0), which="zz")


# Points where a slip in the search shows: at T=2, -145 dB j1 ties
# exactly at tau = 0 and 1, so a last-maximum argmax returns 1; at
# T=100, -37 dB j2 is the only point of a 0.5 dB grid over the T below
# and -100..40 dB where np.log2 in place of math.log2 changes tau*'s value.
_SCAN_EXTRA_DB = {(2, "j1"): (-145.0,), (100, "j2"): (-37.0,)}


@pytest.mark.parametrize("which,bound", [("j1", joint_bound_j1), ("j2", joint_bound_j2)])
@pytest.mark.parametrize("T", [2, 3, 10, 100, 1000])
def test_optimizer_matches_first_max_scan(T, which, bound):
    # reference: the per-tau scan of the public bound, first strict max
    for db in [*range(-100, 41, 10), *_SCAN_EXTRA_DB.get((T, which), ())]:
        snr = SnrValue.from_db(float(db))
        best_tau, best_val = 0, -math.inf
        for tau in range(T):
            v = bound(SisoParams(T=T, tau=tau, snr=snr))
            if v > best_val:
                best_tau, best_val = tau, v
        res = optimize_pilots_joint(T, snr, which=which)
        assert (res.tau_star, res.value) == (best_tau, best_val), db


@pytest.mark.parametrize("bad_T", [0, 1, True, 10.0])
def test_optimizer_blocklength_validation(bad_T):
    with pytest.raises(ValueError):
        optimize_pilots_joint(bad_T, SnrValue(10.0))


@settings(max_examples=100, deadline=None)
@given(log_snr=st.floats(min_value=-6.0, max_value=6.0))
def test_continuous_pilot_fraction_in_unit_interval(log_snr):
    res = optimize_pilots_joint(8, SnrValue(10.0**log_snr))
    assert 0.0 < res.tau_star_continuous < 1.0 + 1e-9


def test_asymptote_reference_values():
    assert asymptote_j1(10) == pytest.approx(0.3618888094727708, rel=REL)
    assert asymptote_j2(10) == pytest.approx(0.3691031216541514, rel=0)
    # single dead symbol: the J1 asymptote collapses to eps_1(1)
    assert asymptote_j1(2) == pytest.approx(0.8603473822708859, rel=REL)


def test_power_advantage_asymptotic():
    assert power_advantage_asymptotic(2).value_3db_units == 0.0
    off = power_advantage_asymptotic(10)
    assert off.value_3db_units == pytest.approx(0.6308968783458486, rel=REL)
    assert off.value_db == pytest.approx(1.899188845528701, rel=REL)
    assert advantage_units(10.0) == off.value_3db_units
    for bad in (1.0, math.nan, math.inf):
        with pytest.raises(ValueError):
            advantage_units(bad)


def test_power_advantage_finite_snr():
    # measured advantage grows with SNR toward the asymptote
    a10 = power_advantage_at_snr(10, SnrValue.from_db(10.0))
    a20 = power_advantage_at_snr(10, SnrValue.from_db(20.0))
    asym = power_advantage_asymptotic(10)
    assert a10.value_db == pytest.approx(1.7192, abs=2e-4)
    assert a10.value_db < a20.value_db < asym.value_db
    high = power_advantage_at_snr(10, SnrValue.from_db(80.0))
    assert abs(high.value_db - asym.value_db) < 1e-3
    # short blocks at moderate SNR: training is too costly, offset negative
    assert power_advantage_at_snr(2, SnrValue.from_db(10.0)).value_db < 0.0


def _scipy_offset(T, snr):
    # reference: the same offset through scipy.optimize.bisect
    from scipy import optimize

    target = joint_bound_j2(SisoParams(T=T, tau=1, snr=snr))

    def gap(delta_db):
        return separate_bound(T, snr.linear * 10.0 ** (delta_db / 10.0)).value - target

    return optimize.bisect(gap, -60.0, 60.0, xtol=1e-6) / DB_PER_UNIT


@pytest.mark.parametrize("T", [2, 10, 100])
def test_power_advantage_matches_scipy_bisect(T):
    for db in (-40.0, -20.0, 0.0, 20.0, 40.0):
        snr = SnrValue.from_db(db)
        assert power_advantage_at_snr(T, snr).value_3db_units == _scipy_offset(T, snr)


@pytest.mark.parametrize(
    "f",
    [
        lambda x: x - 0.3,
        lambda x: x,  # exact zero at the first midpoint
        lambda x: x + 60.0,  # exact zero at the lower end
        lambda x: math.nan if x > 10.0 else x - 20.0,
        lambda x: math.nan if 0.0 < x < 60.0 else x - 20.0,  # NaN at a midpoint
    ],
)
def test_bisect_matches_scipy(f):
    from scipy import optimize

    def run(solver):
        try:
            return solver()
        except ValueError as exc:
            return str(exc)

    ours = run(lambda: _bisect(f, -60.0, 60.0, f(-60.0), f(60.0), xtol=1e-6))
    ref = run(lambda: optimize.bisect(f, -60.0, 60.0, xtol=1e-6))
    assert ours == ref


def test_single_pilot_advantage():
    off = single_pilot_advantage(10)
    assert off.value_3db_units == pytest.approx(0.08327461772768671, rel=REL)
    assert off.value_db == pytest.approx(0.25068157813485226, rel=REL)
    assert single_pilot_advantage(2).value_3db_units == pytest.approx(
        0.4163730886384336, rel=REL
    )


def test_true_capacity_gap():
    g = true_capacity_gap(10)
    assert g.exact.value_3db_units == pytest.approx(0.172892837094, rel=1e-11)
    assert g.stirling.value_3db_units == pytest.approx(
        0.5 * math.log2(10.0) / 9.0, rel=0
    )
    assert g.gap_exact.value_3db_units == pytest.approx(0.19621028456, rel=1e-10)
    assert g.gap_stirling.value_db == pytest.approx(5.0 / 9.0, rel=1e-12)
    g100 = true_capacity_gap(100)
    assert g100.gap_stirling.value_db == pytest.approx(10.0 / 99.0, rel=1e-12)
    assert g100.exact.value_3db_units == pytest.approx(0.0323856905111, rel=1e-10)
    assert g100.gap_exact.value_3db_units == pytest.approx(0.0347239679715, rel=1e-10)


def low_power_expansion_check(p: SisoParams) -> float:
    """Residual of the joint bound against its second-order expansion

        log2(e) * [ m*(snr - snr^2) - (m*snr - sum_{k=1}^{m}(k+tau)*snr^2) ] / T

    with m = T - tau.  The residual is O(snr^3); callers assert the
    constant.  Only meaningful for snr <= 0.01.
    """
    s = p.snr.linear
    if s > 0.01:
        raise ValueError(f"expansion check requires snr <= 0.01, got {s!r}")
    m = p.T - p.tau
    coeff = m * (m + 1) / 2 + m * p.tau
    model = LOG2E * (m * (s - s * s) - (m * s - coeff * s * s)) / p.T
    return abs(joint_bound_j1(p) - model)


def test_low_power_expansion_residual():
    # cubic remainder with an explicit coefficient: for pilot count tau and
    # term index k the third-order weight is (k+tau)^2 + k, so the residual
    # is below LOG2E/T * sum((k+tau)^2 + k + 1) * snr^3 with margin
    for T, tau in ((2, 0), (2, 1), (6, 1), (10, 2)):
        m = T - tau
        coeff = sum((k + tau) ** 2 + k + 1 for k in range(1, m + 1))
        for s in (1e-3, 5e-4, 1e-4):
            residual = low_power_expansion_check(SisoParams(T=T, tau=tau, snr=s))
            assert residual <= LOG2E / T * coeff * s**3


def test_low_power_expansion_is_cubic():
    # halving the SNR shrinks the residual by about 8
    p1 = SisoParams(T=6, tau=1, snr=1e-3)
    p2 = SisoParams(T=6, tau=1, snr=5e-4)
    ratio = low_power_expansion_check(p1) / low_power_expansion_check(p2)
    assert 5.0 < ratio < 12.0


def test_low_power_expansion_range():
    with pytest.raises(ValueError):
        low_power_expansion_check(SisoParams(T=6, tau=1, snr=0.5))
