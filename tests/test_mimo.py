import functools
import math
from fractions import Fraction

import mpmath as mp
import pytest

from pilotbounds import mimo, montecarlo, siso
from pilotbounds.expint import LOG2E, expint_scaled_sum
from pilotbounds.mimo import (
    _ctr_decimal,
    _ctr_value,
    _laguerre_weights,
    MimoPilotSearch,
    capacity_ctr,
    mimo_joint_j1,
    mimo_joint_j2,
    mimo_optimize_pilots,
    mimo_power_advantage_asymptotic,
    mimo_separate,
    pilot_gram_optimality_check,
)
from pilotbounds.montecarlo import McConfig, sample_ctr, sample_delta_mimo
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


@pytest.fixture
def no_sampling(monkeypatch):
    """Fail the test if anything draws a sample."""

    def refuse(*args, **kwargs):
        raise AssertionError("a MIMO bound or search drew samples")

    monkeypatch.setattr(montecarlo, "sample_ctr", refuse)
    monkeypatch.setattr(montecarlo, "_mean_estimate", refuse)


def _exact(est):
    assert est.std_error == 0.0 and est.samples_used == 0
    return est.mean


def _quad_j1(n_t, n_r, T, tau, s):
    """j1 from quadratures of both capacity terms at snr s."""
    penalty = _telatar_quad_rho(n_t, T - tau, n_t / (tau + n_t / s))
    return (1 - tau / T) * _telatar_quad_rho(n_t, n_r, s) - n_r / T * penalty


# 12 x 12 and C_{12,16} run in decimal at every SNR, the penalties
# C_{12,T-tau} with T - tau <= 4 in floats


def test_separate_exact_at_twelve_by_twelve(no_sampling):
    s, taus = 10.0, range(12, 16)
    res = mimo_separate(12, 12, 16, SnrValue(s))
    refs = []
    for tau in taus:
        mmse = 1.0 / (1.0 + s * (tau / 12))
        eff = s * (1.0 - mmse) / (1.0 + s * mmse)
        refs.append((1.0 - tau / 16) * _telatar_quad_rho(12, 12, eff))
    assert res.tau_star == taus[_first_argmax(refs)] and res.tie_within_margin is False
    assert _exact(res.value) == pytest.approx(max(refs), rel=1e-13, abs=0.0)


def test_optimizer_square_twelve_by_twelve(no_sampling):
    s, taus = 10.0, (0, 12, 13, 14, 15)
    res = mimo_optimize_pilots(12, 16, SnrValue(s))
    refs = [_quad_j1(12, 12, 16, tau, s) for tau in taus]
    assert res.tau_star == taus[_first_argmax(refs)] and res.tie_within_margin is False
    assert _exact(res.value) == pytest.approx(max(refs), rel=1e-12, abs=0.0)
    p = MimoParams(n_t=12, n_r=12, T=16, tau=res.tau_star, snr=SnrValue(s))
    assert mimo_joint_j1(p) == res.value


def test_joint_bound_ordering_twelve_by_twelve(no_sampling):
    for db in (0.0, 10.0):
        s = SnrValue.from_db(db).linear
        p = MimoParams(n_t=12, n_r=12, T=16, tau=12, snr=SnrValue(s))
        j1 = _exact(mimo_joint_j1(p))
        j2 = _exact(mimo_joint_j2(p))
        assert j2 <= j1
        assert j1 == pytest.approx(_quad_j1(12, 12, 16, 12, s), rel=1e-12, abs=0.0)
        log_term = LOG2E * (math.log1p(s * 16 / 12) - math.log1p(s))
        ref_j2 = 0.25 * _telatar_quad_rho(12, 12, s) - 144 / 16 * log_term
        assert j2 == pytest.approx(ref_j2, rel=1e-12, abs=0.0)


# j1 values patched in by tau (0 elsewhere), tying exactly in the head
# {0, 2}, between the head and the prefix, inside the prefix, and between
# neighbours that chunks of one lane put in different calls; at n = 2,
# T = 20 and 10 dB every tau <= 6 has a bound (1 - tau/T)*C above 3.8
_PATCHED_TIES = [
    ({0: 1.0, 2: 1.0}, 0),
    ({2: 1.0, 3: 1.0}, 2),
    ({0: 0.5, 2: 0.5, 4: 1.0, 6: 1.0}, 4),
    ({5: 1.0, 6: 1.0}, 5),
]


@pytest.mark.parametrize("chunk", [1, siso._PREFIX_CHUNK])
@pytest.mark.parametrize("patched,tau_star", _PATCHED_TIES)
def test_pilot_search_resolves_exact_ties_toward_fewer_pilots(monkeypatch, chunk, patched, tau_star):
    monkeypatch.setattr(siso, "_PREFIX_CHUNK", chunk)
    monkeypatch.setattr(mimo, "_j1_candidate", lambda n_t, n_r, T, tau, s, c1: patched.get(tau, 0.0))
    res = mimo_optimize_pilots(2, 20, SnrValue(10.0))
    assert (res.tau_star, res.value.mean) == (tau_star, 1.0)


@pytest.mark.parametrize("patched,tau_star", [({}, 2), ({4: 2.0, 8: 3.0}, 4), ({8: 2.0, 12: 4.0}, 8)])
def test_separate_search_resolves_exact_ties_toward_fewer_pilots(monkeypatch, patched, tau_star):
    # C_{2,2}(eff) patched in by tau (0 elsewhere); at T = 16 the shares
    # 1 - tau/16 of tau = 4, 8, 12 are exact, so the products tie exactly
    s, T = 10.0, 16
    taus = range(2, T)
    effs = mimo._effective_snr(s, taus, 2).tolist()
    by_argument = {2 / eff: patched.get(tau, 0.0) for tau, eff in zip(taus, effs)}
    monkeypatch.setattr(mimo, "_ctr_value", lambda t, r, x: by_argument[x])
    res = mimo_separate(2, 2, T, SnrValue(s))
    assert res.tau_star == tau_star
    assert res.value.mean == (1.0 - tau_star / T) * patched.get(tau_star, 0.0)


def test_optimizer_square_two_by_two():
    res = mimo_optimize_pilots(2, 20, SnrValue(10.0), McConfig(samples=100_000, seed=1))
    assert res.tau_star == 2
    assert res.value.mean == pytest.approx(4.3700, abs=0.03)
    assert 0.0 < res.tau_star_continuous < 2.0


def _mp_continuous_pilots(n, s):
    """n^2/S - x at x = n/s, S = sum_k W_k eps_k(x) with the exact
    weights, in mpmath: eps_1 from mp.e1, the rest by the forward
    recurrence at enough digits to absorb its growth x/k per step and
    the cancellation of n^2/S - x."""
    num, den, _, _ = _laguerre_weights(n, 0)
    with mp.workdps(40 + int(2 * n * max(math.log10(n / s), 1.0))):
        x = n / mp.mpf(s)
        eps, total = mp.exp(x) * mp.e1(x), 0
        for k, v in enumerate(num, 1):
            total += v * eps
            eps = (1 - x * eps) / k
        return float(n * n / (total / den) - x)


@pytest.mark.parametrize("n", [2, 3, 4, 12])
def test_continuous_pilot_count_against_mpmath(n):
    # n*(log2(e)/(C/n) - 1/snr) subtracts numbers of order 1/snr; formed
    # so, n = 2 read 2.000004 at -100 dB and 0.0 at -200 dB against the
    # limit n.  At n = 12 the numerator takes the decimal sum.
    num, den, _, _ = _laguerre_weights(n, 0)
    assert sum(num) == n * n * den  # the identity the stable form rests on
    for db in range(-200, 41, 5):
        snr = SnrValue.from_db(float(db))
        got = mimo_optimize_pilots(n, n + 2, snr).tau_star_continuous
        assert got == pytest.approx(_mp_continuous_pilots(n, snr.linear), rel=2e-14, abs=0.0), db
        # the capacity that shares the relaxation's seed keeps its bits
        assert mimo._square_capacity(n, snr.linear)[0] == _ctr_value(n, n, n / snr.linear), db


def _check_vanishing_snr(n, T):
    # C ~ r * rho * log2(e) at -400 dB
    res = mimo_optimize_pilots(n, T, SnrValue(1e-40), McConfig(samples=100))
    assert res.tau_star in [0] + list(range(n, T))
    assert math.isfinite(_exact(res.value)) and math.isfinite(res.tau_star_continuous)
    c = _exact(capacity_ctr(n, n, SnrValue(1e-40), CFG))
    assert c == pytest.approx(n * 1e-40 * LOG2E, rel=1e-12)
    assert c == pytest.approx(_telatar_quad_rho(n, n, 1e-40), rel=1e-13, abs=0.0)


def test_optimizer_rejects_snr_below_sampler_resolution(no_sampling):
    # a sampled C_{12,12} rounds every log2 det to 0 at -400 dB; the
    # decimal sum resolves it, and the optimizer refuses only an SNR whose
    # sum argument n/snr overflows a float
    _check_vanishing_snr(12, 13)
    for n, T in ((2, 4), (12, 13)):
        with pytest.raises(ValueError, match="finite"):
            mimo_optimize_pilots(n, T, SnrValue(1e-308))


def test_optimizer_exact_at_vanishing_snr(no_sampling):
    # the float sum resolves C_{2,2} at -400 dB
    _check_vanishing_snr(2, 4)


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


@pytest.mark.parametrize("blocks", [1, 2])
def test_gram_check_rows_equal_separate_sampler_calls(blocks):
    # X is drawn once for all diagonals; each estimate keeps the bits of
    # its own sample_delta_mimo call with the same cfg
    p = MimoParams(n_t=2, n_r=2, T=6, tau=2, snr=SnrValue(10.0))
    cfg = McConfig(samples={1: 12_000, 2: 20_000}[blocks], seed=2)
    perturbations = [(2.5, 1.5), (3.0, 1.0), (4.0, 0.0)]
    report = pilot_gram_optimality_check(p, perturbations, cfg)
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
    return _telatar_quad_rho(t, r, SnrValue.from_db(db).linear)


@functools.lru_cache(maxsize=None)
def _telatar_quad_rho(t, r, rho):
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
        rho = mp.mpf(rho)
        # mp.quad's tolerance is absolute: integrate log1p(.)/rho, of
        # order 1, where rho is small
        scale = min(rho, 1)
        value = mp.quad(
            lambda lam: mp.log1p(rho * lam / t) / scale * density(lam),
            [0, 1, n, 2 * n + 4, 4 * n + 20, mp.inf],
        )
        return float(value * scale / mp.log(2))


# every size here is admitted by the guard at every SNR; r runs up to
# 20 as the penalty term C_{n_t, T-tau} does for T - tau <= 20
_EXACT_SIZES = [
    (2, 2), (2, 3), (3, 2), (3, 3), (4, 2), (2, 4), (4, 4), (3, 8), (4, 8),
    (2, 16), (3, 16), (4, 16), (16, 4), (5, 5), (6, 6), (7, 7),
    (8, 8), (9, 9), (8, 11), (6, 20), (20, 6),
]
# sizes the guard refuses at every SNR here: the decimal sum, good to
# about one ulp
_DECIMAL_SIZES = [(12, 12), (16, 16), (8, 32), (24, 24)]


@pytest.mark.parametrize("t,r", _EXACT_SIZES + _DECIMAL_SIZES)
def test_exact_capacity_matches_quadrature(t, r, no_sampling):
    rel = 1e-13 if (t, r) in _DECIMAL_SIZES else 1e-10
    for db in (-30.0, 0.0, 30.0, 60.0):
        est = capacity_ctr(t, r, SnrValue.from_db(db), CFG)
        assert _exact(est) == pytest.approx(_telatar_quad(t, r, db), rel=rel, abs=0.0)


@pytest.mark.parametrize("t,r", [(4, 4), (8, 8), (12, 12), (16, 16), (24, 24), (32, 32), (8, 32)])
def test_decimal_digits_match_thirty_more(t, r):
    # 20 + ceil(log10 sum |W_k|) digits round to the float that 30 more
    # digits give; at 4 x 4 and 8 x 8 the float sum serves the public calls
    m, d = min(t, r), abs(t - r)
    digits = _laguerre_weights(m, d)[3]
    for db in (-30.0, 0.0, 30.0):
        x = t / SnrValue.from_db(db).linear
        assert _ctr_decimal(m, d, x, digits) == _ctr_decimal(m, d, x, digits + 30)
        if d == 0:  # and the numerator of the square search's continuous relaxation
            num, den, _, top = mimo._continuous_weights(m)
            assert mimo._decimal_sum(num, den, x, top) == mimo._decimal_sum(num, den, x, top + 30)


def _fraction_weights(m, d):
    """W_k in rationals, term by term from the Laguerre coefficients."""
    c = [Fraction(0)] * (2 * m - 1)
    for k in range(m):
        lag = [
            Fraction((-1) ** i * math.comb(k + d, k - i), math.factorial(i))
            for i in range(k + 1)
        ]
        scale = Fraction(math.factorial(k), math.factorial(k + d))
        for a, la in enumerate(lag):
            for b, lb in enumerate(lag):
                c[a + b] += scale * la * lb
    w = [ci * math.factorial(d + i) for i, ci in enumerate(c)]  # w_j at w[j - d]
    return [sum(w[max(k - 1 - d, 0):]) for k in range(1, d + 2 * m)]


@pytest.mark.parametrize(
    "m,d", [(1, 0), (1, 5), (2, 0), (3, 7), (4, 16), (7, 13), (12, 0), (12, 4), (20, 3), (64, 0), (60, 20)]
)
def test_integer_weights_equal_the_rationals(m, d):
    num, den, weights, _ = _laguerre_weights(m, d)
    ref = _fraction_weights(m, d)
    assert [Fraction(n, den) for n in num] == ref
    assert list(weights) == [float(w) for w in ref]


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
    assert _ctr_value(t, r, x) == LOG2E * expint_scaled_sum(n, x)


# the largest max(t, r) the guard admits at every SNR, per min(t, r),
# as measured over t, r <= 20 and -400...300 dB
_ADMITTED = {1: 20, 2: 20, 3: 20, 4: 20, 5: 20, 6: 20, 7: 13, 8: 11, 9: 9}


def _record_decimal(monkeypatch):
    """Route mimo's decimal sum through a recorder of its arguments."""
    calls = []

    def recording(m, d, x, digits):
        calls.append((m, d, x, digits))
        return _ctr_decimal(m, d, x, digits)

    monkeypatch.setattr(mimo, "_ctr_decimal", recording)
    return calls


def test_guard_admits_the_measured_region_at_every_snr(monkeypatch):
    # among them the sizes the pilot searches reach with n <= 6 and
    # T - tau <= 20
    calls = _record_decimal(monkeypatch)
    for m, largest in _ADMITTED.items():
        for n in range(m, largest + 1):
            for db in range(-400, 301, 50):
                capacity_ctr(m, n, SnrValue.from_db(db))
                capacity_ctr(n, m, SnrValue.from_db(db))
    assert calls == []


@pytest.mark.parametrize("n", [12, 16])
def test_guard_sends_large_sizes_to_the_decimal_sum(n, monkeypatch, no_sampling):
    calls = _record_decimal(monkeypatch)
    for s in (1.0, 100.0):
        est = capacity_ctr(n, n, SnrValue(s), McConfig(samples=2000, seed=3), workers=2)
        assert calls[-1] == (n, 0, n / s, _laguerre_weights(n, 0)[3])
        assert _exact(est) == pytest.approx(_telatar_quad_rho(n, n, s), rel=1e-13, abs=0.0)


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


def _outcome(f, *args):
    """f(*args), or the type and message of what it raised."""
    try:
        return f(*args)
    except Exception as exc:
        return type(exc), str(exc)


def _j1_scan(n, T, snr):
    """The first maximum of mimo_joint_j1 over every tau in {0} U [n, T-1]."""
    taus = [0] + list(range(n, T))
    values = [mimo_joint_j1(MimoParams(n_t=n, n_r=n, T=T, tau=tau, snr=snr), CFG).mean for tau in taus]
    best = _first_argmax(values)
    return taus[best], values[best]


# -3080 dB: n/snr overflows for n >= 2, and at n = 1 j1 is 0 or subnormal
@pytest.mark.parametrize(
    "n,T", [(n, T) for n in range(1, 5) for T in range(n + 1, 21)] + [(2, 100), (2, 300)]
)
@pytest.mark.parametrize("db", [-3080.0, -400.0, -200.0, -60.0, -10.0, 10.0, 30.0, 40.0])
def test_exact_pilot_search(n, T, db):
    snr = SnrValue.from_db(db)
    res = _outcome(mimo_optimize_pilots, n, T, snr, McConfig(samples=100, seed=1))
    assert res == _outcome(mimo_optimize_pilots, n, T, snr, McConfig(samples=5000, seed=2))
    ref = _outcome(_j1_scan, n, T, snr)
    if isinstance(res, MimoPilotSearch):
        assert (res.tau_star, res.value.mean) == ref
        assert res.value.std_error == 0.0 and res.value.samples_used == 0
        assert res.tie_within_margin is False
    else:
        assert res == ref


@pytest.mark.parametrize("n,T,db", [(2, 1000, 10.0), (3, 300, -10.0)])
def test_pilot_search_evaluates_only_the_candidates_that_can_win(monkeypatch, n, T, db):
    # the tau > n whose bound (1 - tau/T)*C_{n,n} exceeds the best j1 at tau in {0, n}
    snr = SnrValue.from_db(db)
    best = max(mimo_joint_j1(MimoParams(n_t=n, n_r=n, T=T, tau=tau, snr=snr)).mean for tau in (0, n))
    c1 = capacity_ctr(n, n, snr).mean
    kept = [tau for tau in range(n + 1, T) if (1.0 - tau / T) * c1 > best]
    evaluated = []
    candidate = mimo._j1_candidate

    def spy(n_t, n_r, T, tau, s, c1):
        evaluated.append(tau)
        return candidate(n_t, n_r, T, tau, s, c1)

    monkeypatch.setattr(mimo, "_j1_candidate", spy)
    mimo_optimize_pilots(n, T, snr)
    assert evaluated == [0, n] + kept
    assert 0 < len(kept) < T - n - 1  # some kept, some pruned
