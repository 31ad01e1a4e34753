import decimal
import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pilotbounds.expint import (
    _CF_MAX_ITER,
    _SCALAR_LANES,
    _SCALAR_SUM_LANES,
    _SERIES_X,
    EULER_GAMMA,
    _eps1_estimate,
    _eps_scalar_cf,
    _scaled_sums,
    eps1_array,
    expint_scaled,
    expint_scaled_sum,
)


def expint_e1(x: float) -> float:
    """E_1(x) = integral_1^inf e^{-x t}/t dt for x > 0, as e^{-x} eps_1(x).

    Underflows to 0.0 for x beyond ~745 where the true value is
    smaller than the tiniest subnormal.
    """
    eps1 = expint_scaled(1, x)  # validates x
    return math.exp(-x) * eps1


def quadrature_oracle(k: int, x: float) -> float:
    """Reference eps_k(x) = integral_0^inf e^{-x u} (1+u)^{-k} du (the
    substitution t = 1 + u in e^x E_k(x)) by mpmath.quad at 30 digits.
    Not mpmath.expint, which returns nonsense at large k and x."""
    with mpmath.workdps(30):
        f = lambda u: mpmath.exp(-x * u) * (1 + u) ** (-k)
        return float(mpmath.quad(f, [0, 1, mpmath.inf]))

# reference values from mpmath at 50 digits
EPS_REF = {
    (1, 1.0): 0.5963473623231941,
    (1, 2.0): 0.3613286168882226,
    (2, 2.0): 0.2773427662235548,
    (3, 1.0): 0.29817368116159704,
    (1, 0.21): 1.4593202275219137,
    (1, 4.0): 0.20634564990105583,
    (1, 700.0): 0.0014265364183008867,
}

SUM_REF = {
    (4, 1.0): 1.5321157874410647,
    (9, 1.0): 2.2575798716602167,
    (9, 2.0): 1.6679750175434717,
    (100, 0.5): 5.2983466985095722,
    (9999, 1.0): 9.2102903761436828,
    (10000, 0.5): 9.9034875554529614,
    (10000, 2.0): 8.5173431905815708,
    (10000, 50.0): 5.3032554035497272,
    # mpmath.quad of integral_0^inf e^{-xu} (1 - (1+u)^{-n}) / u du at 40 digits
    (10, 1e3): 0.009945435757455516,
    (1000, 1e3): 0.6930222170104607,
    (10, 1e6): 9.999945000439995e-06,
    (1000, 1e6): 0.000999499834082699,
    (10, 1e10): 9.9999999945e-10,
    (1000, 1e10): 9.999999499500034e-08,
}


@pytest.mark.parametrize("k,x", sorted(EPS_REF))
def test_scaled_reference_values(k, x):
    assert expint_scaled(k, x) == pytest.approx(EPS_REF[(k, x)], rel=5e-14)


def test_e1_reference_values():
    assert expint_e1(1.0) == pytest.approx(0.21938393439552027, rel=5e-14)
    assert expint_e1(0.1) == pytest.approx(1.8229239584193907, rel=5e-14)


def test_e1_near_underflow():
    # exp(-700) is still a normal double; the product must survive
    assert expint_e1(700.0) == pytest.approx(1.406518766e-307, rel=1e-8)
    assert expint_e1(800.0) == 0.0


@pytest.mark.parametrize("n,x", sorted(SUM_REF))
def test_sum_reference_values(n, x):
    assert expint_scaled_sum(n, x) == pytest.approx(SUM_REF[(n, x)], rel=5e-13)


@pytest.mark.parametrize("x", [0.05, 0.7, 1.0, 3.0, 12.5, 50.0])
@pytest.mark.parametrize("n", [1, 2, 7, 40])
def test_sum_matches_termwise(n, x):
    total = sum(expint_scaled(k, x) for k in range(1, n + 1))
    assert expint_scaled_sum(n, x) == pytest.approx(total, rel=1e-12)


def test_batched_sums_match_scalar_bitwise():
    # every lane seeds and recurs exactly like the scalar call
    rng = np.random.default_rng(20090905)
    n = rng.integers(1, 2001, size=300)
    x = 10.0 ** rng.uniform(-6.0, 11.0, size=300)
    x[:40] = rng.uniform(0.5, 1.5, size=40)
    assert (x < 1.0).any() and (x >= 1.0).any()
    batch = _scaled_sums(n, x)
    solo = np.array([expint_scaled_sum(int(ni), float(xi)) for ni, xi in zip(n, x)])
    assert np.array_equal(batch, solo)


@pytest.mark.parametrize("snr_db", [-100.0, -37.5, 0.0, 40.0])
@pytest.mark.parametrize("T", [2, 10, 1000])
def test_batched_sums_match_scalar_on_search_lanes(T, snr_db):
    # the lanes of the j1 pilot search: tau = 0..T-1, n = T - tau terms at
    # x = tau + 1/snr; tau = T-1 has n = 1, and at low SNR every lane
    # seeds at k0 = n, so the forward recurrence has no step to run
    taus = np.arange(T)
    n = T - taus
    x = taus + 1.0 / 10.0 ** (snr_db / 10.0)
    batch = _scaled_sums(n, x)
    solo = np.array([expint_scaled_sum(int(ni), float(xi)) for ni, xi in zip(n, x)])
    assert np.array_equal(batch, solo)


@pytest.mark.parametrize("lanes", [_SCALAR_SUM_LANES - 1, _SCALAR_SUM_LANES, _SCALAR_SUM_LANES + 1])
def test_batched_sums_match_scalar_either_side_of_the_small_batch_rule(lanes):
    # j1 search lanes at T = 1000, 10 dB: tau = 0 seeds below x = 1, the
    # rest at x >= 1, and from tau = 500 up k0 = n (no forward step)
    T = 1000
    taus = np.linspace(0, T - 1, lanes).astype(np.int64)
    n = T - taus
    x = taus + 0.1
    k0 = np.minimum(n, np.ceil(x))
    assert x[0] < 1.0 <= x[1] and (k0 == n).any() and (k0 < n).sum() > 1
    batch = _scaled_sums(n, x)
    solo = np.array([expint_scaled_sum(int(ni), float(xi)) for ni, xi in zip(n, x)])
    assert np.array_equal(batch, solo)


def test_sum_single_term_is_first_order():
    for x in (0.3, 1.0, 9.0):
        assert expint_scaled_sum(1, x) == expint_scaled(1, x)


@pytest.mark.parametrize(
    "k,x",
    [(k, x) for k in (1, 2, 5, 20, 100) for x in (0.05, 0.5, 1.0, 3.0, 10.0, 50.0)]
    + [(k, x) for k in (1, 3) for x in (1e-6, 1e-3)],
)
def test_against_quadrature_oracle(k, x):
    # independent route: quadrature of the defining integral
    assert expint_scaled(k, x) == pytest.approx(quadrature_oracle(k, x), rel=1e-12)


@settings(max_examples=200, deadline=None)
@given(
    k=st.integers(min_value=1, max_value=500),
    x=st.floats(min_value=1e-3, max_value=1e3),
)
def test_bracket_property(k, x):
    # 1/(x+k) < e^x E_k(x) < 1/(x+k-1), strict on both sides
    val = expint_scaled(k, x)
    assert 1.0 / (x + k) < val
    if k > 1:
        assert val < 1.0 / (x + k - 1)
    else:
        assert val < 1.0 / x or x < 1.0


@settings(max_examples=200, deadline=None)
@given(
    k=st.integers(min_value=1, max_value=300),
    x=st.floats(min_value=1e-3, max_value=1e3),
)
def test_recurrence_property(k, x):
    # k * eps_{k+1}(x) = 1 - x * eps_k(x)
    lhs = k * expint_scaled(k + 1, x)
    rhs = 1.0 - x * expint_scaled(k, x)
    assert lhs == pytest.approx(rhs, rel=1e-7, abs=1e-12)


@settings(max_examples=100, deadline=None)
@given(
    k=st.integers(min_value=1, max_value=200),
    x=st.floats(min_value=1e-3, max_value=1e3),
)
def test_monotone_in_order(k, x):
    assert expint_scaled(k + 1, x) < expint_scaled(k, x)


def test_eps1_array_matches_scalar_bitwise():
    # batch evaluation must equal one-at-a-time evaluation exactly:
    # each lane converges on its own schedule and then freezes
    rng = np.random.default_rng(20090906)
    cases = [np.array([0.01, 0.3, 0.999, 1.0, 1.5, 7.0, 123.0, 1e3])]
    # the vector continued fraction: near x = 1 a lane needs ~86
    # iterations, at 1e9 a few, so lanes leave the batch all along
    cases.append(
        np.concatenate(
            [
                rng.uniform(1e-6, 1.0, 500),
                rng.uniform(1.0, 1.05, 500),
                10.0 ** rng.uniform(0.0, 9.0, 1000),
            ]
        )
    )
    # either side of the switch from the scalar to the vector CF
    for cf_lanes in (_SCALAR_LANES - 1, _SCALAR_LANES, _SCALAR_LANES + 1):
        cases.append(np.concatenate([rng.uniform(0.1, 1.0, 7), rng.uniform(1.0, 3.0, cf_lanes)]))
    for xs in cases:
        batch = eps1_array(xs)
        solo = np.array([expint_scaled(1, float(x)) for x in xs])
        assert np.array_equal(batch, solo)


def fixed_count_series(xs: np.ndarray) -> np.ndarray:
    """eps_1 below x = 1 by all 25 terms of the series: the kernel,
    which stops at the last term that can change the sum, must return
    these bits."""
    acc = -EULER_GAMMA - np.log(xs)
    term = xs.copy()
    for n in range(1, 26):
        acc = acc + term
        term = term * (-xs) * n / (n + 1.0) ** 2
    return np.exp(xs) * acc


def _assert_series_bits(xs, scalar=True):
    ref = fixed_count_series(xs)
    assert np.array_equal(eps1_array(xs), ref)
    if scalar:
        assert [expint_scaled(1, x) for x in xs.tolist()] == ref.tolist()


def test_series_stops_without_changing_a_bit_at_the_thresholds():
    # either side of each threshold below 1 the count changes by one term
    below_one = [t for t in _SERIES_X if t < 1.0]
    assert len(below_one) == 17
    ulp = 2.0**-52
    xs = np.array([t * f for t in below_one for f in (1.0 - ulp, 1.0, 1.0 + ulp)])
    for x in xs:
        _assert_series_bits(np.array([x]))
    _assert_series_bits(xs)


def test_series_stops_without_changing_a_bit_log_uniform():
    rng = np.random.default_rng(14)
    xs = 10.0 ** rng.uniform(-300.0, 0.0, 100_000)
    xs = xs[xs < 1.0]
    _assert_series_bits(xs, scalar=False)
    _assert_series_bits(xs[::50])  # one by one: each lane runs its own count


def test_eps1_estimate_equals_the_full_series():
    # the series stops at the kernel's term count; the terms it drops add
    # exactly nothing, so the result is that of all 25 terms, here on
    # 10^5 log-uniform arguments and on both sides of each step of the count
    rng = np.random.default_rng(20261020)
    edges = [t for t in _SERIES_X if t < 1.0]
    xs = np.concatenate([
        np.exp(rng.uniform(math.log(1e-12), 0.0, 100_000)),
        edges, np.nextafter(edges, 0.0), np.nextafter(edges, 1.0),
    ])
    # the 25-term float loop of _eps1_estimate, lane by lane in numpy:
    # each step is one IEEE operation, as on Python floats
    acc = -EULER_GAMMA - np.array([math.log(x) for x in xs.tolist()]) + xs
    term = xs.copy()
    for n in range(1, 25):
        term *= -xs * n / (n + 1.0) ** 2
        acc += term
    full = np.array([math.exp(x) for x in xs.tolist()]) * acc
    assert [_eps1_estimate(x) for x in xs.tolist()] == full.tolist()


@pytest.mark.parametrize(
    "xs",
    [
        [1e-300, 0.999999],
        [3e-9, 1e-5, 0.5, 0.9999999999999999],
        [0.99, 1e-200, 0.2, 1e-12, 0.05],
        [5e-324, 0.7],
    ],
)
def test_series_stops_without_changing_a_bit_in_mixed_batches(xs):
    # the tiny lanes run the count the near-1 lane needs
    _assert_series_bits(np.array(xs))


@pytest.mark.parametrize("k", [1, 2, 5, 33])
@pytest.mark.parametrize("x", [1.0, 1.05, 3.0, 50.0, 1e4])
def test_continued_fraction_on_decimals_at_forty_digits(k, x):
    # the float fraction run on Decimals, with the tolerance and cap that
    # the decimal sums pass at 40 digits, against mpmath's e^x E_k(x) at
    # 80 digits (checked against 160).  The fraction stops once a step
    # moves the value by at most 100 units in the last digit; near x = 1,
    # where it converges slowly, the remainder is several times that last
    # step (625 units at k = 1, x = 1), so the bound is 1000 units
    with decimal.localcontext() as ctx:
        ctx.prec = 40
        value = _eps_scalar_cf(k, decimal.Decimal(x), decimal.Decimal(1).scaleb(2 - 40), _CF_MAX_ITER * 40)
    refs = []
    for dps in (80, 160):
        with mpmath.workdps(dps):
            refs.append(mpmath.exp(mpmath.mpf(x)) * mpmath.expint(k, mpmath.mpf(x)))
    with mpmath.workdps(80):
        ref = refs[0]
        assert abs(refs[1] - ref) < abs(ref) * mpmath.mpf(10) ** -60
        unit = mpmath.mpf(10) ** (int(mpmath.floor(mpmath.log10(ref))) - 39)
        assert abs(mpmath.mpf(str(value)) - ref) <= 1000 * unit


@pytest.mark.parametrize("bad_k", [0, -1, 1.5, 10.0, True, None])
def test_order_validation(bad_k):
    with pytest.raises(ValueError):
        expint_scaled(bad_k, 1.0)


@pytest.mark.parametrize("bad_x", [0.0, -1.0, math.nan, math.inf, None])
def test_argument_validation(bad_x):
    with pytest.raises(ValueError):
        expint_scaled(1, bad_x)


def test_sum_length_validation():
    with pytest.raises(ValueError):
        expint_scaled_sum(0, 1.0)
    with pytest.raises(ValueError):
        expint_scaled_sum(2.5, 1.0)
