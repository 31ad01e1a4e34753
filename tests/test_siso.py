import functools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from offset_grid import BENCH_T, SISO_SNR_DB, mpmath_offset_db, reference_offset_db

from pilotbounds import siso
from pilotbounds.expint import LOG2E, _scaled_sums
from pilotbounds.params import SisoParams, SnrValue, _check_snr_blocklength, linear_snr
from pilotbounds.siso import (
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
    # snr^2/(1 + 2 snr) at -400 dB, where 1 + snr*tau rounds to 1
    s = SnrValue.from_db(-400.0).linear
    assert snr_effective(1, SnrValue(s)).linear == pytest.approx(s * s, rel=1e-15)
    # snr^2 underflows: the effective SNR is 0, reported as such
    with pytest.raises(ValueError, match="effective SNR at tau=1 rounds to 0"):
        snr_effective(1, SnrValue.from_db(-1700.0))


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


# Points where a slip in the search shows: at T=2, -170 dB j1 ties
# exactly at tau = 0 and 1 (its series puts them log2(e) snr^3/2 apart,
# under an ulp from about -157 dB down), so a last-maximum argmax returns 1; at
# T=100, -18 dB j2 is the only point of a 0.5 dB grid over -100..40 dB
# at that T where np.log1p in place of math.log1p changes tau*'s value.
# At T=1000 from -10 to 10 dB the pruned j1 search sums 0-4 of the
# tau >= 2.
_SCAN_EXTRA_DB = {
    (2, "j1"): (-170.0,),
    (100, "j2"): (-18.0,),
    (1000, "j1"): (-7.5, -5.0, -2.5, 2.5, 5.0, 7.5),
}


@pytest.mark.parametrize("which,bound", [("j1", joint_bound_j1), ("j2", joint_bound_j2)])
@pytest.mark.parametrize("T", [2, 3, 10, 33, 100, 300, 1000])
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


def _j1_lanes_summed(monkeypatch, T, snr):
    """The tau >= 2 whose eps_k sums the j1 search runs."""
    summed = []

    def spy(n, x):
        summed.extend((T - n).tolist())
        return _scaled_sums(n, x)

    monkeypatch.setattr(siso, "_scaled_sums", spy)
    optimize_pilots_joint(T, snr, which="j1")
    monkeypatch.undo()
    assert summed[:2] == [0, 1]
    return summed[2:]


def _j1_lanes_that_can_win(T, snr):
    # the tau >= 2 whose bound (1 - tau/T)*C, less the floor on the penalty
    # over T, exceeds the best j1 at tau <= 1, in the search's operations
    best = max(joint_bound_j1(SisoParams(T=T, tau=tau, snr=snr)) for tau in (0, 1))
    c = capacity_csi(snr)
    taus = np.arange(2, T)
    floor = siso._penalty_floor(T - taus, siso._j1_argument(taus, snr.linear)) / T
    return taus[(1.0 - taus / T) * c - floor > best].tolist()


# at T = 1000 the bound (1 - tau/T)*C alone keeps 998 / 998 / 998 / 994 /
# 451 / 49 / 10 / 0 of the tau >= 2 at these SNRs; from -90 dB down the
# floor's margin, not its bound, limits the pruning
@pytest.mark.parametrize(
    "db,kept",
    [(-100.0, 131), (-90.0, 43), (-75.0, 7), (-50.0, 0), (-25.0, 0), (-10.0, 0), (0.0, 0), (40.0, 0)],
)
def test_j1_search_sums_only_the_lanes_that_can_win(monkeypatch, db, kept):
    snr = SnrValue.from_db(db)
    lanes = _j1_lanes_summed(monkeypatch, 1000, snr)
    assert lanes == _j1_lanes_that_can_win(1000, snr)
    assert len(lanes) == kept


def test_j1_search_keeps_a_lane_whose_bound_exceeds_the_best_by_an_ulp(monkeypatch):
    # bisect in dB for the last SNR at which tau = 2's floored bound still
    # exceeds the best j1 at tau <= 1 (at -75 dB it does, at -50 dB it
    # does not): there the margin is a few ulps, and any relative pruning
    # margin above that drops the lane
    lo, hi = -75.0, -50.0
    assert _j1_lanes_that_can_win(1000, SnrValue.from_db(lo))[:1] == [2]
    assert _j1_lanes_that_can_win(1000, SnrValue.from_db(hi)) == []
    while True:
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            break
        if _j1_lanes_that_can_win(1000, SnrValue.from_db(mid))[:1] == [2]:
            lo = mid
        else:
            hi = mid
    assert _j1_lanes_summed(monkeypatch, 1000, SnrValue.from_db(lo)) == [2]
    assert _j1_lanes_summed(monkeypatch, 1000, SnrValue.from_db(hi)) == []


def test_j1_search_at_a_million_sums_one_lane_past_the_head(monkeypatch):
    # at -40 dB the first-order floor left 140 of the tau >= 2 to sum
    lanes = []

    def spy(n, x):
        lanes.extend((10**6 - n).tolist())
        return _scaled_sums(n, x)

    monkeypatch.setattr(siso, "_scaled_sums", spy)
    res = optimize_pilots_joint(10**6, SnrValue.from_db(-40.0), which="j1")
    assert (res.tau_star, res.value) == (1, float.fromhex("0x1.208fc1b61cc61p-13"))
    assert len(lanes) == 3 and lanes[:2] == [0, 1]


@pytest.mark.parametrize("n", [1, 2, 3, 10, 999, 10**3, 10**4, 10**5])
def test_j1_penalty_floor_lies_below_the_float_sum(n):
    # the floor lies below the exact sum by its margin and about 1/(4x^2)
    # relative; the float sum lies below the exact one by up to the
    # kernel's error (8.3e-14 at n = 10^5, x = 10^15), which only the
    # margin covers.  _scaled_sums is expint_scaled_sum lane for lane.
    # Past x = 1e154 a product (x + a)(x + n + a) would overflow.
    xs = np.concatenate([np.logspace(-4.0, 15.0, 120), np.logspace(16.0, 300.0, 72), [1.0, 2.0, 1.0 + 1e-9]])
    ns = np.full(xs.size, n)
    below = LOG2E * _scaled_sums(ns, xs) >= siso._penalty_floor(ns, xs)
    assert below.all(), xs[~below]


@pytest.mark.parametrize("db", [-2000.0, -3000.0])
def test_j1_search_at_vanishing_snr_takes_no_pilot(db):
    # every lane of j1's series underflows to 0, so the first maximum is
    # tau = 0; the floor's terms stay finite, with no overflow warning
    res = optimize_pilots_joint(1000, SnrValue.from_db(db), which="j1")
    assert (res.tau_star, res.value) == (0, 0.0)


@pytest.mark.parametrize("T", [3, 5, 10, 30])
def test_penalty_falls_by_less_than_eps1_from_one_pilot(T):
    # optimize_pilots_joint's lemma at 40 digits: with S(tau) the sum of
    # eps_k(tau + x) over k <= T - tau, S(tau) - S(tau + 1) <=
    # log1p(1/(tau + x)) < eps_1(x) at every tau in [1, T - 2], so j1 and
    # j2 fall from tau = 1 on; the least slack, about 1e-6 relative of
    # eps_1, lies at x = 10^6
    mpmath = pytest.importorskip("mpmath")
    for x in [*(10.0**e for e in range(-4, 7)), 0.37, 3.7]:
        with mpmath.workdps(80):
            S = [_mp_scaled_sum(mpmath, T - tau, tau + mpmath.mpf(x)) for tau in range(T)]
        with mpmath.workdps(40):
            e1 = _mp_scaled_expint(mpmath, 1, x, 40)
            for tau in range(1, T - 1):
                step = mpmath.log1p(1 / (tau + mpmath.mpf(x)))
                assert S[tau] - S[tau + 1] <= step < e1, (x, tau)


def _mp_scaled_sum(mpmath, n, x):
    """sum_{k=1}^{n} eps_k(x) at the working precision from one 40-digit
    seed eps_{k0}(x), k0 = min(n, ceil(x)), and the recurrence
    k eps_{k+1} = 1 - x eps_k run from it in its stable directions: down
    to k = 1, where each step scales the error by k/x <= 1, and up to
    k = n, by x/k <= 1."""
    k0 = min(n, int(mpmath.ceil(x)))
    eps = {k0: _mp_scaled_expint(mpmath, k0, x, 40)}
    for k in range(k0 - 1, 0, -1):
        eps[k] = (1 - k * eps[k + 1]) / x
    for k in range(k0, n):
        eps[k + 1] = (1 - x * eps[k]) / k
    return mpmath.fsum(eps.values())


def _mp_scaled_expint(mpmath, k, x, digits=50):
    """eps_k(x) = e^x E_k(x) by mpmath.expint, to digits significant
    digits: at large k and x mpmath.expint can return nonsense at a given
    precision, so the precision doubles until two values agree."""
    dps, prev = 2 * digits, None
    while True:
        with mpmath.workdps(dps):
            X = mpmath.mpf(x)
            val = mpmath.exp(X) * mpmath.expint(k, X)
        if prev is not None and abs(val - prev) <= abs(val) * mpmath.mpf(10) ** -digits:
            return val
        prev, dps = val, 2 * dps


@pytest.mark.parametrize("k", [1, 2, 3, 5, 10, 100, 1000])
def test_second_approximant_lies_below_eps_k(k):
    # the floor's two steps on eps_k: the continued fraction's second
    # approximant lies below eps_k, and 1/(x + k) + k/((x + k)^2 (x + k + 2))
    # below that approximant; the gaps run down to 4e-32 relative at x = 10^8
    mpmath = pytest.importorskip("mpmath")
    for x in [10.0**e for e in range(-3, 9)]:
        eps = _mp_scaled_expint(mpmath, k, x)
        with mpmath.workdps(60):
            u = mpmath.mpf(x) + k
            second = 1 / (u - k / (u + 2))
            assert eps > second >= 1 / u + k / (u**2 * (u + 2)), x


@pytest.mark.parametrize("T", [2000, 10**4])
def test_j1_search_matches_the_unpruned_scan_at_long_blocks(T):
    for db in (-100.0, -60.0, -40.0, -20.0, 0.0, 20.0):
        s = SnrValue.from_db(db).linear
        # the expression of joint_bound_j1 at every tau; np.argmax keeps the first maximum
        values = siso._j1_values(np.arange(T), T, s, capacity_csi(s))
        best = int(np.argmax(values))
        res = optimize_pilots_joint(T, SnrValue(s), which="j1")
        assert (res.tau_star, res.value) == (best, values[best]), db


def _j2_scan(T, s):
    """(tau*, value) of the exhaustive scan: joint_bound_j2's expression
    at every tau, max keeping the first maximum."""
    c = capacity_csi(s)
    values = [siso._j2(tau, T, s, c) for tau in range(T)]
    best = max(range(T), key=values.__getitem__)
    return best, values[best]


@pytest.mark.parametrize("T", [10**4, 10**6])
def test_j2_search_matches_the_scan_at_long_blocks(T):
    for db in (-40.0, 0.0, 40.0):
        s = SnrValue.from_db(db).linear
        res = optimize_pilots_joint(T, SnrValue(s), which="j2")
        assert (res.tau_star, res.value) == _j2_scan(T, s), db


@pytest.mark.parametrize("T,db", [(20000, -110.0), (40000, -110.0), (10**5, -120.0)])
def test_j2_search_in_the_series_regime_matches_the_scan(T, db):
    s = SnrValue.from_db(db).linear
    assert s * T <= siso._J2_SERIES_MAX
    res = optimize_pilots_joint(T, SnrValue(s), which="j2")
    assert (res.tau_star, res.value) == _j2_scan(T, s)


@pytest.mark.parametrize("T", [2, 10**6, 10**15])
@pytest.mark.parametrize("db", [-100.0, 10.0])
def test_j2_search_evaluates_one_pilot_only(monkeypatch, T, db):
    # j2 falls from tau = 1 on and j2(1) > j2(0), so the search evaluates
    # tau = 1 alone; at T = 10^15 and -100 dB a prefix of about 10^11
    # lanes once passed the bound (1 - tau/T)*C
    evaluated = []
    j2 = siso._j2
    monkeypatch.setattr(siso, "_j2", lambda tau, *args: evaluated.append(tau) or j2(tau, *args))
    snr = SnrValue.from_db(db)
    res = optimize_pilots_joint(T, snr, which="j2")
    assert evaluated == [1]
    assert (res.tau_star, res.value) == (1, j2(1, T, snr.linear, capacity_csi(snr)))


def test_j2_search_takes_one_pilot_on_the_benchmark_grid():
    # the paper's "at most one pilot" for the Jensen bound: tau* = 1 at
    # each of the 1,311 points
    for T in BENCH_T:
        for db in SISO_SNR_DB:
            assert optimize_pilots_joint(T, SnrValue.from_db(db), which="j2").tau_star == 1, (T, db)


def _mp_j2_and_separate(mpmath, T, tau, s):
    """j2 at tau and the separate bound's maximum over tau in [1, T-1] at
    the float snr s, in mpmath at 120 digits; the lanes are log-concave
    in tau, so a ternary search finds the maximum."""
    with mpmath.workdps(120):
        S = mpmath.mpf(s)
        log2e = 1 / mpmath.log(2)

        def cap(snr):
            return log2e * mpmath.e1(1 / snr) * mpmath.exp(1 / snr)

        j2 = (1 - mpmath.mpf(tau) / T) * cap(S) - log2e * mpmath.log((1 + S * T) / (1 + S * tau)) / T

        def lane(k):
            return (1 - mpmath.mpf(k) / T) * cap(S * S * k / (1 + S * k + S))

        lo, hi = 1, T - 1
        while hi - lo > 3:
            a, b = lo + (hi - lo) // 3, hi - (hi - lo) // 3
            lo, hi = (a + 1, hi) if lane(a) < lane(b) else (lo, b)
        return j2, max(lane(k) for k in range(lo, hi + 1)), cap(S)


@settings(max_examples=120, deadline=None)
@given(
    T=st.sampled_from([2, 10, 100, 1000]),
    tau=st.sampled_from([0, 1, 2]),
    db=st.floats(min_value=-200.0, max_value=60.0),
)
def test_vanishing_snr_orderings_and_accuracy(T, tau, db):
    # 0 <= j2 <= j1 <= (1 - tau/T)*C and 0 <= I_S <= C, and j2 and I_S
    # against mpmath: j2 within 1e-14 of (1 - tau/T)*C and, in its series
    # regime, within 1e-13 of itself; I_S within 1e-13.  j1 lies above j2
    # by about 1/(T + tau) of itself at low SNR; the kernel's penalty once
    # left j1 1e-3 off at T = 1000, tau = 0, -149.5 dB, below j2
    # (9.0601e-28 < 9.0631e-28), and its series (snr*T <= 1e-8) mends it.
    mpmath = pytest.importorskip("mpmath")
    tau = min(tau, T - 1)
    s = SnrValue.from_db(db).linear
    p = SisoParams(T=T, tau=tau, snr=SnrValue(s))
    cap = capacity_csi(s)
    data = (1.0 - tau / T) * cap
    j2, sep = joint_bound_j2(p), separate_bound(T, s).value
    ref_j2, ref_sep, ref_cap = _mp_j2_and_separate(mpmath, T, tau, s)
    assert 0.0 <= j2 <= data and 0.0 <= sep <= cap
    assert j2 <= joint_bound_j1(p) <= data
    assert abs(j2 - float(ref_j2)) <= 1e-14 * float((1 - mpmath.mpf(tau) / T) * ref_cap)
    if s * T <= siso._J2_SERIES_MAX:
        assert abs(j2 - float(ref_j2)) <= 1e-13 * float(ref_j2)
    assert sep == pytest.approx(float(ref_sep), rel=1e-13, abs=0.0)


def _mp_j1(mpmath, T, tau, s):
    """j1 at a float snr s <= 1e-8/T in mpmath at 50 digits, from one
    quadrature of T*j1/log2(e) = (T - tau) eps_1(1/snr) - sum_{k=1}^{T-tau}
    eps_k(tau + 1/snr), each eps_k(x) = int_0^inf e^-v (1 + v/x)^-k / x dv
    and their sum in its geometric form; the digits cover the order-snr
    cancellation."""
    with mpmath.workdps(50):
        y = 1 / mpmath.mpf(s)
        x, n = tau + y, T - tau

        def f(v):
            return mpmath.exp(-v) * (n / (y + v) + mpmath.expm1(-n * mpmath.log1p(v / x)) / v)

        return mpmath.quad(f, [0, 1, 40, mpmath.inf]) / T / mpmath.log(2)


@pytest.mark.parametrize("T", [2, 3, 10, 1000])
def test_j1_series_matches_mpmath(T):
    # in the series regime, snr*T <= 1e-8, j1 within 1e-15 of itself plus
    # the rounding of tau/T in its factor 1 - tau/T, relative to that factor
    mpmath = pytest.importorskip("mpmath")
    for s in (siso._J1_SERIES_MAX / T, 1e-12 / T, 1e-20):
        for tau in sorted({0, 1, 2, T - 1} & set(range(T))):
            j1 = joint_bound_j1(SisoParams(T=T, tau=tau, snr=SnrValue(s)))
            tol = 1e-15 + 2.0**-53 * tau / (T - tau)
            assert j1 == pytest.approx(float(_mp_j1(mpmath, T, tau, s)), rel=tol, abs=0.0), (s, tau)


@pytest.mark.parametrize("chunk", [1, 7])
def test_joint_searches_are_exact_across_chunks(monkeypatch, chunk):
    # a bound whose first maximum, tau = 12, lies past the head and the
    # first chunk, with a tie at tau = 19 in a later one: the kept prefix
    # in calls of `chunk` lanes gives the first maximum of one scan, with
    # and without a ceiling
    T, c = 30, 1.0
    table = [0.3 if tau in (12, 19) else (1.0 - tau / T) * c * 0.25 for tau in range(T)]
    calls = []

    def values(taus):
        calls.append(len(taus))
        return [table[tau] for tau in taus]

    monkeypatch.setattr(siso, "_PREFIX_CHUNK", chunk)
    for ceiling in (None, lambda taus: (1.0 - taus / T) * c):
        calls.clear()
        assert siso._first_max(values, T, c, 1, ceiling) == (12, 0.3)
        assert calls[0] == 2 and max(calls[1:]) <= chunk


def test_first_max_prefix_stops_at_the_last_pilot_count_when_the_head_is_negative():
    # every value negative, the first maximum at tau = T - 1: the bound
    # (1 - tau/T)*c exceeds the head's best at every tau < T, so the prefix
    # runs to T - 1, and at tau = T it is 0, which exceeds a negative best
    # too; the search must not evaluate tau = T
    T, c = 12, 1.0
    table = [-1.0 + tau / 100.0 for tau in range(T)]

    def values(taus):
        return [table[tau] for tau in taus]

    for ceiling in (None, lambda taus: (1.0 - taus / T) * c):
        assert siso._first_max(values, T, c, 1, ceiling) == (T - 1, table[T - 1])


@pytest.mark.parametrize("bad_T", [0, 1, True, 10.0])
def test_optimizer_blocklength_validation(bad_T):
    with pytest.raises(ValueError):
        optimize_pilots_joint(bad_T, SnrValue(10.0))


@settings(max_examples=100, deadline=None)
@given(log_snr=st.floats(min_value=-6.0, max_value=6.0))
def test_continuous_pilot_fraction_in_unit_interval(log_snr):
    res = optimize_pilots_joint(8, SnrValue(10.0**log_snr))
    assert 0.0 < res.tau_star_continuous < 1.0 + 1e-9


def test_continuous_pilot_count_against_mpmath():
    # tau_c = log2(e)/C - 1/snr = eps_2(x)/eps_1(x) at x = 1/snr; below
    # 0 dB the difference cancels, which read 1.002 at -130 dB and 0.0 at
    # -160 dB before the ratio was taken from the continued fraction
    mpmath = pytest.importorskip("mpmath")
    for db in np.arange(-200.0, 40.5, 1.0):
        snr = SnrValue.from_db(float(db))
        with mpmath.workdps(40):
            x = 1 / mpmath.mpf(snr.linear)
            ref = float(mpmath.expint(2, x) / mpmath.expint(1, x))
        got = optimize_pilots_joint(4, snr).tau_star_continuous
        assert got == pytest.approx(ref, rel=2e-14, abs=0.0), db
        assert 0.0 < got <= 1.0, db


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


# 0, 7.5, 15 and 30 dB lie on the SNR grid of the benchmark's fig2
# sweeps.  At T = 300 and 1000 the lanes below 0 dB take eps_1's
# continued fraction.
_OFFSET_DB = {
    **dict.fromkeys((2, 3, 5, 10, 40, 100), (-40.0, -20.0, 0.0, 7.5, 15.0, 20.0, 30.0, 40.0)),
    **dict.fromkeys((300, 1000), (-60.0, -40.0, -10.0, -5.0, 0.0)),
}
# the benchmark's blocklengths, from its lowest SNR to past its highest;
# at 3000 dB snr*T overflows at the bracket's top from T = 180 on, and
# the offset raises there as separate_bound does
_BENCH_OFFSET_DB = (*range(-100, 41, 10), 60.0, 3000.0)


def _offset_dbs(T):
    return sorted(map(float, {*_OFFSET_DB.get(T, ()), *(_BENCH_OFFSET_DB if T in BENCH_T else ())}))


def _outcome(f):
    """f()'s value, or the type and message of the error it raises."""
    try:
        return f()
    except (ValueError, RuntimeError) as exc:
        return type(exc).__name__, str(exc)


def _scipy_offset_db(T: int, snr: SnrValue) -> float:
    """The offset in dB by scipy.optimize.bisect on the public bounds."""
    from scipy import optimize

    target = joint_bound_j2(SisoParams(T=T, tau=1, snr=snr))

    def gap(delta_db):
        return separate_bound(T, snr.linear * 10.0 ** (delta_db / 10.0)).value - target

    return optimize.bisect(gap, -60.0, 60.0, xtol=1e-6)


@pytest.mark.parametrize("T", sorted({*_OFFSET_DB, *BENCH_T}))
def test_power_advantage_matches_scipy_bisect(T):
    # scipy's bisection of the full separate bound lands within its xtol of
    # 1e-6 dB, plus the 1e-8 dB of the lane root: the least lane root is
    # the full bound's root.  Where the bracket's top overflows, both
    # raise separate_bound's error.
    for db in _offset_dbs(T):
        snr = SnrValue.from_db(db)
        ours = _outcome(lambda: power_advantage_at_snr(T, snr).value_db)
        ref = _outcome(lambda: _scipy_offset_db(T, snr))
        if isinstance(ref, tuple):
            assert ours == ref, db
        else:
            assert abs(ours - ref) <= 1.01e-6, db


@functools.cache
def _mpmath_offset_db(T, db):
    return reference_offset_db(T, db)


@pytest.mark.parametrize("T", sorted({*_OFFSET_DB, *BENCH_T}))
def test_power_advantage_matches_mpmath(T):
    # within 1e-8 dB of the mpmath root: the benchmark's table where it
    # holds the point, else bench.reference bisected to 1e-9 dB
    for db in _offset_dbs(T):
        if db == 3000.0 and T >= 180:
            continue  # raises, as test_power_advantage_matches_scipy_bisect checks
        ours = power_advantage_at_snr(T, SnrValue.from_db(db)).value_db
        assert abs(ours - _mpmath_offset_db(T, db)) <= 1e-8, db


@pytest.mark.parametrize("T", [10**6, 10**9])
def test_power_advantage_at_long_blocks_matches_mpmath(T):
    # the offset is 0.6 / 0.015 / 0.018 dB at T = 10^6 and shrinks about as
    # 1/sqrt(T): the bisection's absolute xtol of 1e-6 dB would not resolve it
    for db in (-40.0, 0.0, 20.0):
        ours = power_advantage_at_snr(T, SnrValue.from_db(db)).value_db
        assert abs(ours - mpmath_offset_db(T, db)) <= 1e-10, db


# -1700 dB: at the bracket's lower end, -1760 dB, snr^2 underflows and the
# effective SNR of the separate bound rounds to 0; 3020 dB: snr*T
# overflows at the upper end
_RAISING_DB = (-1700.0, 3020.0)


@pytest.mark.parametrize("T", [2, 10, 100, 1000])
def test_power_advantage_raises_as_the_public_path(T):
    for db in _RAISING_DB:
        snr = SnrValue.from_db(db)
        end = snr.linear * 10.0 ** (6.0 if db > 0.0 else -6.0)
        ref = _outcome(lambda: separate_bound(T, end))
        assert isinstance(ref, tuple), db
        assert _outcome(lambda: power_advantage_at_snr(T, snr)) == ref, db
    with pytest.raises(ValueError) as exc:
        power_advantage_at_snr(T, SnrValue.from_db(-1700.0))
    assert str(exc.value) == "effective SNR at tau=1 rounds to 0 at snr=1e-176"
    with pytest.raises(ValueError, match=r"^snr\*T overflows a float: snr=1e\+308, T="):
        power_advantage_at_snr(T, SnrValue.from_db(3020.0))


def _numpy_lane_one_checks(T, s):
    """The offset's checks at -60 and +60 dB on a 1-element numpy array of
    lanes, as numpy forms the effective SNR and its reciprocal: the
    reference for the float checks of siso._check_lane_one."""
    for end_db in (-60.0, 60.0):
        end = linear_snr(s * 10.0 ** (end_db / 10.0))
        _check_snr_blocklength(end, T)
        t = np.asarray((1,)) / 1
        eff = end * (end * t / (1.0 + end * t + end))
        if eff[0] == 0.0:
            raise ValueError(f"effective SNR at tau=1 rounds to 0 at snr={end!r}")
        with np.errstate(over="ignore"):
            if math.isinf((1.0 / eff)[0]):
                raise ValueError("arguments must be finite and > 0")


@pytest.mark.parametrize("T", [2, 10, 1000])
def test_power_advantage_lane_one_checks_raise_as_on_arrays(T):
    # -1700 dB: eff rounds to 0 at the lower end; -1500 dB: eff is
    # subnormal there and 1/eff overflows; 3020 dB and 1e305: snr*T, or
    # the upper end itself, overflows; subnormal SNRs: eff rounds to 0, or
    # the lower end itself rounds to 0.  The target is never reached.
    points = [SnrValue.from_db(db).linear for db in (-1700.0, -1500.0, 3020.0)] + [1e305, 1e-310, 1e-320]
    for s in points:
        ref = _outcome(lambda: _numpy_lane_one_checks(T, s))
        assert isinstance(ref, tuple), s
        assert _outcome(lambda: siso._advantage_at_target(T, s, 1.0)) == ref, s


@pytest.mark.parametrize("T", [2, 10, 1000])
def test_power_advantage_saturates_outside_the_bracket(monkeypatch, T):
    # targets that the separate bound meets at +59 dB and at +61 dB, one
    # it exceeds everywhere (0) and one no lane reaches (100 bits)
    s = SnrValue.from_db(0.0).linear
    near = separate_bound(T, s * 10.0**5.9).value
    monkeypatch.setattr(siso, "joint_bound_j2", lambda p: near)
    assert power_advantage_at_snr(T, s).value_db == pytest.approx(59.0, abs=1e-9)
    for target in (separate_bound(T, s * 10.0**6.1).value, 0.0, 100.0):
        monkeypatch.setattr(siso, "joint_bound_j2", lambda p: target)
        with pytest.raises(RuntimeError, match=rf"^offset saturated: no crossing within \+/-60.0 dB for T={T}, snr=1.0$"):
            power_advantage_at_snr(T, s)


def _offset_and_work(monkeypatch, T, snr):
    """The offset at (T, snr) in dB, the Newton solves it made, and the
    full separate bounds it evaluated: kernel calls of T - 1 lanes or more."""
    solves, lanes = [], []
    lane_root, kernel = siso._lane_root_db, siso._eps1_lanes
    with monkeypatch.context() as m:
        m.setattr(siso, "_lane_root_db", lambda *args: solves.append(1) or lane_root(*args))
        m.setattr(siso, "_eps1_lanes", lambda x: lanes.append(len(x)) or kernel(x))
        value = power_advantage_at_snr(T, snr).value_db
    return value, len(solves), sum(n >= T - 1 for n in lanes)


@pytest.mark.parametrize("T", [10, 100, 1000])
def test_power_advantage_evaluates_few_full_bounds(monkeypatch, T):
    # no full separate bound at all, and a few Newton solves from the start
    # lane (2 to 9 here)
    for db in (-40.0, 0.0, 20.0):
        value, solves, full = _offset_and_work(monkeypatch, T, SnrValue.from_db(db))
        assert abs(value - _mpmath_offset_db(T, db)) <= 1e-8, db
        assert full == 0 and solves <= 10, (db, solves)


@pytest.mark.parametrize("T", [10**6, 10**9, 10**15])
def test_power_advantage_takes_log_t_newton_solves(monkeypatch, T):
    # each step of the search compares two lane roots: 13 to 53 solves here
    for db in (-40.0, 0.0, 20.0):
        _, solves, full = _offset_and_work(monkeypatch, T, SnrValue.from_db(db))
        assert full == 0 and solves <= 4 * math.log2(T), (db, solves)


@pytest.mark.parametrize("lane", ["first", "last"])
def test_power_advantage_from_a_wrong_start_lane_keeps_its_bits(monkeypatch, lane):
    # from lane 1 or lane T - 1 the search gallops to the same least lane
    points = [(T, db) for T, dbs in _OFFSET_DB.items() for db in dbs]
    expected = [power_advantage_at_snr(T, SnrValue.from_db(db)) for T, db in points]
    monkeypatch.setattr(siso, "_start_lane", lambda s, T: 1 if lane == "first" else T - 1)
    assert [power_advantage_at_snr(T, SnrValue.from_db(db)) for T, db in points] == expected


@pytest.mark.parametrize("answer", [1, 2, 5, 17, 64, 100])
def test_first_false_finds_the_first_false_from_any_start(answer):
    # the least t in [1, 100] where t < answer fails, from every start, in
    # O(log d) calls, d the distance from the start to the answer
    for start in range(1, 101):
        calls = []
        got = siso._first_false(lambda t: calls.append(t) or t < answer, 1, 100, start)
        assert got == answer, start
        assert len(calls) <= 2 * math.log2(abs(start - answer) + 1) + 3, start


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
