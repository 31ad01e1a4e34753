"""Scalar-channel spectral-efficiency bounds and power offsets.

All quantities are in bits/s/Hz over a Rayleigh block-fading channel
whose gain is constant for T symbols and redrawn independently per
block.  tau of the T symbols carry known pilots.

Three spectral efficiencies are computed:

* capacity_csi: ergodic capacity with the channel known perfectly.
* separate_bound: estimate the channel from pilots (MMSE), then decode
  treating the estimate as exact; the pilot count is optimized.
* joint_bound_j1 / joint_bound_j2: closed-form lower bounds on the
  mutual information when pilot and data observations are decoded
  together; j2 relaxes j1 through one Jensen step, so j2 <= j1.

High-SNR comparisons are reported as PowerOffset values in 3-dB units:
the horizontal spacing between log2-scale asymptotes.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .expint import (
    EULER_GAMMA,
    LOG2E,
    _BAD_ARGUMENTS,
    _eps1_estimate,
    _eps1_lanes,
    _eps_scalar_cf,
    _scaled_sums,
    eps1_array,  # not called here; bench/spans.py wraps siso.eps1_array
    expint_scaled,
    expint_scaled_sum,
)
from .params import (
    DB_PER_UNIT,
    PowerOffset,
    SisoParams,
    SnrValue,
    _check_int,
    _check_snr_blocklength,
    linear_snr,
)

_OFFSET_BRACKET_DB = 60.0
_NEWTON_STEPS = 40
_J2_SERIES_MAX = 1e-6  # snr*T at and below which _j2 sums its series
# snr*T at and below which j1 sums its series (_j1_series): above it the
# kernel's penalty leaves under about 6e-16/(snr*T) <= 6e-8 of j1
_J1_SERIES_MAX = 1e-8
# the j1 and MIMO searches evaluate their kept pilot counts this many at a
# time; at low SNR j1's prefix runs to nearly T lanes
_PREFIX_CHUNK = 1 << 16
# relative margin _FLOOR_MARGIN + _FLOOR_MARGIN_PER_ORDER * n by which the
# j1 search lowers its floor on a sum of n orders: the kernel documents its
# summed error as <= 1e-10 only up to n = 10^4, and at n = 10^5, x = 10^15
# the float sum lies 8.3e-14 below the floor's unlowered bound
_FLOOR_MARGIN = 1e-9
_FLOOR_MARGIN_PER_ORDER = 1e-15


class SeparateBound(NamedTuple):
    value: float
    tau_star: int


class PilotSearch(NamedTuple):
    tau_star: int
    value: float
    tau_star_continuous: float


class TrueCapacityGap(NamedTuple):
    exact: PowerOffset
    stirling: PowerOffset
    gap_exact: PowerOffset
    gap_stirling: PowerOffset


def capacity_csi(snr) -> float:
    """Perfect-CSI ergodic capacity log2(e) * eps_1(1/snr) in bits/s/Hz."""
    s = linear_snr(snr)
    return LOG2E * expint_scaled(1, 1.0 / s)


def mmse_estimate_variance(tau: int, snr) -> float:
    """Estimation-error variance 1/(1 + snr*tau) of the pilot-based
    MMSE channel estimate; requires at least one pilot."""
    tau = _check_int("tau", tau, 1)
    s = linear_snr(snr)
    return 1.0 / (1.0 + s * tau)


def snr_effective(tau: int, snr) -> SnrValue:
    """Post-estimation SNR snr*(1 - mmse)/(1 + snr*mmse); always < snr."""
    s = linear_snr(snr)
    tau = _check_int("tau", tau, 1)
    eff = _eff(s, tau)
    _check_eff(eff, tau, s)
    return SnrValue(eff)


def _eff(s: float, t):
    """The effective SNR at t = tau/n_t, a float or an array of them.
    With the MMSE m = 1/(1 + snr*t), snr*(1 - m)/(1 + snr*m) is
    snr*(snr*t/(1 + snr*t + snr)), formed here with nothing subtracted,
    so it rounds to 0 only where snr^2 underflows (about -1617 dB).  A
    float t and a lane of an array take the same operations."""
    st = s * t
    return s * (st / (1.0 + st + s))


def _check_eff(eff: float, tau: int, s: float) -> None:
    if eff == 0.0:  # eff grows with tau; n_t/eff is undefined
        raise ValueError(f"effective SNR at tau={tau} rounds to 0 at snr={s!r}")


def _j1(tau, T: int, c: float, penalty, n_r: int = 1):
    """j1 from its penalty at one tau or an array of them; dividing by T/n_r
    keeps n_r = 1 bit-equal, and n_r = T, tau = 0 gives exactly C - C."""
    return (1.0 - tau / T) * c - penalty / (T / n_r)


def _j1_argument(tau, s: float, n_t: int = 1):
    """Argument of the eps_k sums in the j1 penalty."""
    return tau + n_t / s


def _j1_value(tau: int, T: int, s: float, c: float) -> float:
    """joint_bound_j1 at one tau, with c = capacity_csi(s): _j1_series
    where snr*T <= _J1_SERIES_MAX, else (1 - tau/T)*c less the kernel's
    penalty.  _j1_values takes the same branch on a search's lanes."""
    if s * T <= _J1_SERIES_MAX:
        return _j1_series(tau, T, s)
    return _j1(tau, T, c, LOG2E * expint_scaled_sum(T - tau, _j1_argument(tau, s)))


def _j1_series(tau, T: int, s: float):
    """j1 at n_t = n_r = 1 and snr*T <= 1e-8 from its series in snr, at
    one tau or an array of them with the same operations.

    With n = T - tau and u = snr/(1 + snr*tau) = 1/(tau + 1/snr),
    eps_1(1/snr) = sum_m (-1)^m m! snr^(m+1) and eps_k(tau + 1/snr) =
    sum_m (-1)^m (k)_m u^(m+1) (A&S 5.1.51), and sum_{k=1}^{n} (k)_m =
    n (n + 1)_m/(m + 1).  As snr - u = snr*u*tau, snr^(m+1) - u^(m+1) =
    snr*u*tau*g_m with g_m = sum_{j<=m} snr^j u^(m-j), and

        T*j1/(n log2(e)) = snr*u*tau * sum_m (-1)^m m! g_m
                           - sum_m (-1)^m r_m u^(m+1),

    r_m = (n + 1)_m/(m + 1) - m!, so r_0 = 0: the order-snr terms cancel
    in closed form, where the kernel's penalty cancels them in floats (a
    relative error of about 6e-16/(snr*T)).  The two sums lead with
    snr*u*tau and r_1 u^2 = (n - 1)/2 u^2, both >= 0 and one > 0 (tau >=
    1, or n = T >= 2), so together over n*snr^2/4, and each later term is
    smaller by about (n + m)*u <= 1e-8, so nothing cancels.  Each eps
    series leaves a remainder below its first omitted term (DLMF
    8.20(i)), so m <= 4 leaves under 4 (snr*(T + 5))^4 < 1e-29 of j1."""
    n = T - tau
    u = s / (1.0 + s * tau)
    g, s_m, u_m, rise, fact = 1.0, 1.0, u, 1.0, 1.0  # g_m, snr^m, u^(m+1), (n + 1)_m, m!
    pilots, data = 1.0, 0.0  # the m = 0 terms: g_0 = 1, r_0 = 0
    for m in range(1, 5):
        s_m, u_m, fact = s_m * s, u_m * u, fact * m
        g = u * g + s_m
        rise = rise * (n + m)
        term = (rise / (m + 1) - fact) * u_m
        if m % 2:
            pilots, data = pilots - fact * g, data + term
        else:
            pilots, data = pilots + fact * g, data - term
    return LOG2E * (1.0 - tau / T) * (s * u * tau * pilots + data)


def _j2(tau: int, T: int, s: float, c: float, n_t: int = 1, n_r: int = 1) -> float:
    """j2 at one tau: _j2_series at n_t = n_r = 1 and snr*T <= 1e-6.  Else
    the log term is log2(e) * log1p(snr*(T - tau)/(n_t + snr*tau)), by
    math.log1p (np.log1p can differ in the last bit); the subtraction
    leaves a few ulps of (1 - tau/T)*c, about 2e-16/(snr*T) of j2
    (4e-16/snr^2 at T = 2, tau = 0)."""
    if n_t == n_r == 1 and s * T <= _J2_SERIES_MAX:
        return _j2_series(tau, T, s)
    return (1.0 - tau / T) * c - n_t * n_r * (LOG2E * math.log1p(s * (T - tau) / (n_t + s * tau))) / T


def _j2_series(tau, T: int, s: float):
    """j2 at n_t = n_r = 1 and snr*T <= 1e-6 from its series in snr.

    With u = snr*T, v = snr*tau and h_k = sum_{j<=k} u^j v^(k-j),
    T*j2/log2(e) = (T - tau) sum_{n>=2} (-1)^(n-1) (n! snr^n - snr h_{n-1})/n:
    eps_1(1/snr) = sum_{n>=1} (-1)^(n-1) (n-1)! snr^n (A&S 5.1.51) times
    T - tau, less the series of log((1 + u)/(1 + v)); the order-snr terms
    cancel.  The n = 2 term, snr^2 (T + tau - 2)/2, comes from an exact
    integer, so it is 0 at T = 2, tau = 0, where n = 3 leads.  Both series
    alternate with remainders below their first omitted terms, so n <= 6
    leaves under 1e-20 of the sum; the leading term outweighs the rest by
    1/(8u), so the float sum is within 1e-15 of the series, relative."""
    u, v = s * T, s * tau
    total = s * (s * (T + tau - 2)) / 2.0
    h, v_k, s_n, fact = u + v, v, s * s, 2.0
    for n in range(3, 7):
        v_k, s_n, fact = v_k * v, s_n * s, fact * n
        h = u * h + v_k
        term = (fact * s_n - s * h) / n
        total = total + term if n % 2 else total - term
    return LOG2E * (1.0 - tau / T) * total


def _tau_continuous(c: float, s: float) -> float:
    """Continuous relaxation log2(e)/c - 1/snr of the pilot search.  At
    x = 1/snr >= 1, where the difference cancels, it is
    eps_2(x)/eps_1(x) = log2(e)*eps_2(x)/c."""
    x = 1.0 / s
    if x >= 1.0:
        return LOG2E * _eps_scalar_cf(2, x) / c
    return LOG2E / c - x


def separate_bound(T: int, snr) -> SeparateBound:
    """Best separate-processing efficiency max_tau (1 - tau/T) * C(snr_eff).

    The maximization over integer tau in [1, T-1] is exhaustive; ties
    resolve to the smallest tau.
    """
    T = _check_int("T", T, 2)
    return _separate_bounds((T,), linear_snr(snr))[0]


def _separate_bounds(grid, s: float) -> list[SeparateBound]:
    """separate_bound(T, s) at each T of an ascending grid of checked
    T >= 2, from one array of lanes tau = 1 ... grid[-1] - 1: each T's
    bound is the first argmax over the prefix of its T - 1 lanes.  The
    checks come first, lane 1's at each T in grid order, as separate_bound
    makes them T by T.

    A prefix of the lane array is bit-equal to a lone call on its lanes.
    The effective SNR, its reciprocal x, the share 1 - tau/T and the
    products are elementwise.  eps_1 (_eps1_lanes) runs each lane's own
    operations.  Below x = 1 it runs the series, whose term count the
    batch's largest x < 1 sets; x falls as tau rises, so that is the lane
    of the least such tau, the same in a prefix and in the array.  At
    x >= 1 it runs the continued fraction, scalar up to _SCALAR_LANES
    such lanes and vector past them, two forms of one operation sequence.
    So a T whose prefix sits on the scalar side of the switch and a longer
    array on the vector side give the same bits.
    """
    for T in grid:
        _check_lane_one(T, s)
    taus = np.arange(1, grid[-1])
    rates = LOG2E * _eps1_lanes(1.0 / _eff(s, taus))  # lane 1's checks passed
    bounds = []
    for T in grid:
        values = (1.0 - taus[: T - 1] / T) * rates[: T - 1]
        best = int(np.argmax(values))
        bounds.append(SeparateBound(value=float(values[best]), tau_star=best + 1))
    return bounds


def _check_lane_one(T: int, s: float) -> None:
    """Every check separate_bound(T, s) makes, on floats: snr*T, then lane
    1's effective SNR and eps_1 argument 1/eff.  eff ascends with tau, so
    1/eff at tau = 1 is the largest argument and the only one that can
    fail eps1_array's check."""
    _check_snr_blocklength(s, T)
    eff = _eff(s, 1)
    _check_eff(eff, 1, s)
    if math.isinf(1.0 / eff):
        raise ValueError(_BAD_ARGUMENTS)


def joint_bound_j1(p: SisoParams) -> float:
    """Joint-processing lower bound

        (1 - tau/T) * C(snr) - (log2 e / T) * sum_{k=1}^{T-tau} eps_k(tau + 1/snr).

    tau = 0 gives the data-only (no pilot) form of the same bound.
    """
    return _j1_value(p.tau, p.T, p.snr.linear, capacity_csi(p.snr))


def joint_bound_j2(p: SisoParams) -> float:
    """Jensen-relaxed joint bound

        (1 - tau/T) * C(snr) - (1/T) * log2((1 + snr*T)/(1 + snr*tau)).
    """
    return _j2(p.tau, p.T, p.snr.linear, capacity_csi(p.snr))


_JOINT_KINDS = ("j1", "j2")


def optimize_pilots_joint(T: int, snr, which: str = "j1") -> PilotSearch:
    """Pilot-count search for the selected joint bound.

    Searches integer tau in [0, T-1]; ties resolve to the smallest tau.
    The continuous relaxation tau* = log2(e)/C - 1/snr is reported for
    reference only (it lies in [0, 1], up to float cancellation at
    extreme SNR) and never decides the integer answer.

    Both bounds fall strictly from tau = 1 on.  With x = 1/snr, e1 =
    eps_1(x) = C/log2(e) and S(tau) = sum_{k=1}^{T-tau} eps_k(tau + x),

        T*(j2(tau + 1) - j2(tau))/log2(e) = log1p(1/(tau + x)) - e1,
        T*(j1(tau + 1) - j1(tau))/log2(e) = S(tau) - S(tau + 1) - e1,

    and S(tau) - S(tau + 1) <= log1p(1/(tau + x)) < e1 at tau >= 1, so j1
    falls at least as fast as j2.  Proof: eps_k(y) = int_0^inf e^(-yw)
    (1 + w)^(-k) dw, so summing over k, S(tau) = int_0^inf e^(-(tau + x)w)
    (1 - (1 + w)^(tau - T))/w dw.  S(tau) - S(tau + 1) is then Frullani's
    integral of (e^(-(tau + x)w) - e^(-(tau + 1 + x)w))/w, log1p(1/(tau +
    x)), less that of e^(-(tau + x)w) (1 + w)^(tau + 1 - T) (1/(1 + w) -
    e^(-w))/w >= 0, as e^w >= 1 + w.  And e1 > log1p(2/x)/2 (A&S 5.1.20)
    > log1p(1/(1 + x)) >= log1p(1/(tau + x)), as (x + 1)^2 > x(x + 2).

    So both tau* lie in {0, 1}, and j2's is 1: T*(j2(1) - j2(0))/log2(e)
    = log1p(snr) - e1 > 0, as e1, the mean of ln(1 + snr|h|^2), is below
    ln(1 + snr) by Jensen.  The j2 search returns j2(1) and evaluates
    nothing else.  That is the first maximum of j2's floats wherever they
    separate tau = 1 from the rest.  A float scan picks another tau where
    they do not: at T = 10^15 and -100 dB (a relative gap to tau = 0 of
    about 5e-26), and from about -1595 dB down (-1617 dB at T = 2), where
    j2 is subnormal or 0.

    The j1 search is exact as an exhaustive scan of its floats, so it
    has j2's limit: where j1's lanes are subnormal (about -1600 dB and
    down) rounding, not the bound, orders them, and it can return tau* =
    2, as at T = 10 and -1617.5 dB, where the lanes are a few ulps of the
    smallest subnormal.

    j1(tau) is (1 - tau/T)*C less a penalty >= 0, so (1 - tau/T)*C
    bounds it bit for bit, and _first_max evaluates only the prefix of
    pilot counts where that bound beats the best so far, nearly T lanes
    at low SNR.  Within it a lane is summed only if (1 - tau/T)*C less a
    floor on its penalty (_penalty_floor) still beats the best: the continued
    fraction's second approximant bounds each eps_k from below, summed in
    closed form and lowered by the margin 1e-9 + 1e-15*n for the kernel's
    summation error.  At T = 1000 it sums 131 of the 998 tau >= 2 at -100
    dB and none from -60 dB up.  Where snr*T <= 1e-8 j1's lanes come from
    _j1_series, within 1e-15 of the exact j1, far inside the floor's
    margin, so the floor bounds them too.
    """
    if which not in _JOINT_KINDS:
        raise ValueError(f"which must be one of {_JOINT_KINDS}, got {which!r}")
    T = _check_int("T", T, 2)
    s = linear_snr(snr)
    _check_snr_blocklength(s, T)
    c = capacity_csi(s)
    # the public bounds and the MIMO bounds (with their antenna counts) call
    # the same expressions, so the value equals joint_bound_*(tau*) bit for bit
    if which == "j1":
        best, value = _first_max(
            lambda taus: _j1_values(np.asarray(taus), T, s, c), T, c, 1,
            lambda taus: (1.0 - taus / T) * c - _penalty_floor(T - taus, _j1_argument(taus, s)) / T,
        )
    else:
        best, value = 1, _j2(1, T, s, c)
    continuous = _tau_continuous(c, s)
    return PilotSearch(tau_star=best, value=value, tau_star_continuous=continuous)


def _j1_values(taus: np.ndarray, T: int, s: float, c: float) -> np.ndarray:
    """_j1_value at each of taus, lane for lane."""
    if s * T <= _J1_SERIES_MAX:
        return _j1_series(taus, T, s)
    return _j1(taus, T, c, LOG2E * _scaled_sums(T - taus, _j1_argument(taus, s)))


def _penalty_floor(n, x):
    """A floor on the j1 penalty LOG2E * expint_scaled_sum(n, x) at arrays
    of n >= 1 and x > 0, lowered by the relative margin
    _FLOOR_MARGIN + _FLOOR_MARGIN_PER_ORDER * n for the kernel's
    summation error.  With u_k = x + k, the exact sum exceeds

        log1p((n - 1)/(x + 1)) + (1/(x + 1) + 1/(x + n))/2
            + max(0, (x + 2)/4 * (P(1) + P(2)) - x/2 * P(1/2)),

    P(a) = n/((x + a)(x + n + a)).  The proof has three steps, and a
    fourth on floats.

    Second approximant: the approximants of the J-fraction (A&S 5.1.22)
    eps_k(x) = 1/(u_k - k/(u_k + 2 - 2(k + 1)/(u_k + 4 - ...))) approach
    eps_k from below, and the first is 1/u_k (A&S 5.1.19).  So
    eps_k(x) > 1/(u_k - k/(u_k + 2)), and as 1/(A - e) >= 1/A + e/A^2
    for 0 <= e < A, eps_k(x) > 1/u_k + h_k, h_k = k/(u_k^2 (u_k + 2)).

    Trapezoid: 1/(x + t) is convex in t, so the trapezoid rule on [1, n]
    overestimates its integral, and sum_{k=1}^{n} 1/u_k >=
    log1p((n - 1)/(x + 1)) + (1/(x + 1) + 1/(x + n))/2.

    Partial fractions: h_k = (x + 2)/4 * (1/u_k - 1/(u_k + 2)) - x/2/u_k^2.
    The first part telescopes to (x + 2)/4 * (P(1) + P(2)).  1/(x + t)^2
    is convex too, so the midpoint rule underestimates its integral over
    [1/2, n + 1/2], and sum_k 1/u_k^2 <= P(1/2).  Their difference is a
    floor on sum_k h_k > 0, so clamping it at 0 keeps it one.

    Floats: the difference cancels, to about n^2/(2x^3) from two terms
    near n/(2x) at large x.  Formed as quotients n/(x + a)/(x + n + a),
    not from differences such as 1/(x + 1) - 1/(x + n + 1), each term
    carries a few roundings relative to itself, so the clamped difference
    is off by under ulp(n/(2x)), far inside the margin.  A subtracted
    form lay above the float sum from about x = 6.5e7 up, at every n
    tested, and the product (x + a)(x + n + a) overflows from x of about
    1e154.

    At large x the bound falls short of the exact sum by about 1/(4x^2)
    relative (2.9e-9 at x = 10^4, n = 100), where log1p(n/(x + 1))
    alone falls short by 1/(2x); from x of about 3*10^4 on, the margin
    is most of the gap."""
    xa, xb, xc = x + 0.5, x + 1.0, x + 2.0
    h_floor = xc / 4.0 * (n / xb / (xb + n) + n / xc / (xc + n)) - x / 2.0 * (n / xa / (xa + n))
    total = np.log1p((n - 1) / xb) + (1.0 / xb + 1.0 / (x + n)) / 2.0 + np.maximum(h_floor, 0.0)
    return LOG2E * total * (1.0 - (_FLOOR_MARGIN + _FLOOR_MARGIN_PER_ORDER * n))


def _first_max(values, T: int, c: float, first: int, ceiling=None) -> tuple[int, float]:
    """(tau*, value), the first maximum over tau in {0} U [first, T-1]
    of a bound that values(taus) gives at each tau of a range or an
    ascending integer array, and that the float (1 - tau/T)*c, c > 0,
    bounds.  A bound formed as the callers form (1 - tau/T)*c less a
    number >= 0 never exceeds it, since a rounded subtraction of a
    non-negative number never exceeds what it subtracts from.  The head
    {0, first} (only 0 when first >= T) comes first; a later tau whose
    float bound does not exceed the head's best can be neither larger
    nor, being later, the first maximum.  tau/T, the subtraction and the
    product with c are each rounded monotonically, so the float bound is
    non-increasing in tau, and the tau > first kept are a prefix, found
    by _first_false and evaluated in calls of at most _PREFIX_CHUNK lanes,
    so memory stays bounded.  Each lane is bit-equal whatever its batch,
    and np.argmax and the strict > give ties to the smaller tau, so the
    result is the exhaustive scan's.  The callers are the SISO j1 search
    (first = 1) and the square MIMO one (first = n).

    ceiling(taus), if given, bounds the float values from above at an
    array of taus.  A lane of the prefix is then evaluated only if its
    ceiling exceeds the best before its chunk: a lane that fails can be
    neither larger nor first."""
    taus = range(0, min(first + 1, T), first)
    head = values(taus)
    i = int(np.argmax(head))
    best, value = taus[i], float(head[i])
    # the prefix ends at the first tau whose bound fails; tau < T keeps
    # tau = T out where the head's best is negative
    end = _first_false(lambda tau: tau < T and (1.0 - tau / T) * c > value, first + 1, T, first + 1)
    for start in range(first + 1, end, _PREFIX_CHUNK):
        taus = range(start, min(start + _PREFIX_CHUNK, end))
        if ceiling is not None:
            lanes = np.asarray(taus)
            taus = lanes[ceiling(lanes) > value]
            if not len(taus):
                continue
        rest = values(taus)
        i = int(np.argmax(rest))
        if rest[i] > value:
            best, value = int(taus[i]), float(rest[i])
    return best, value


def asymptote_j1(T: int) -> float:
    """High-SNR penalty of the joint bound at tau = 1, in 3-dB units:
    log2(e) * sum_{k=1}^{T-1} eps_k(1) / (T - 1)."""
    T = _check_int("T", T, 2)
    return LOG2E * expint_scaled_sum(T - 1, 1.0) / (T - 1)


def asymptote_j2(T: int) -> float:
    """High-SNR penalty of the Jensen-relaxed bound: log2(T)/(T-1)."""
    T = _check_int("T", T, 2)
    return math.log2(T) / (T - 1)


def advantage_units(effective_T: float) -> float:
    """Asymptotic joint-over-separate advantage 1 - log2(T)/(T-1) for a
    (possibly fractional) blocklength, in 3-dB units."""
    effective_T = float(effective_T)
    if not math.isfinite(effective_T):
        raise ValueError(f"effective blocklength must be finite, got {effective_T}")
    if effective_T <= 1.0:
        raise ValueError(f"effective blocklength must exceed 1, got {effective_T}")
    return 1.0 - math.log2(effective_T) / (effective_T - 1.0)


def power_advantage_asymptotic(T: int) -> PowerOffset:
    """High-SNR power advantage of joint over separate processing."""
    T = _check_int("T", T, 2)
    return PowerOffset(advantage_units(T))


def power_advantage_at_snr(T: int, snr) -> PowerOffset:
    """Finite-SNR power advantage: the dB shift delta solving

        separate_bound(T, snr * 10^(delta/10)).value = joint_bound_j2(T, 1, snr).

    The separate bound rises strictly with SNR, so the root is unique; at
    small T and finite SNR delta may be negative.  A root outside
    [-60, +60] dB raises RuntimeError("offset saturated: ...").  The
    target's checks come first, then separate_bound's own, made on lane 1
    at -60 and then +60 dB: they are monotone in SNR, so no SNR between
    would raise.

    delta is the least lane root: every lane (1 - tau/T) * C(eff_tau)
    rises with SNR, so the bound meets the target where its first lane
    does, at the least over tau of r_tau (_lane_root_db).  At every SNR
    the lane is log-concave in tau (C and eff_tau are concave and
    increasing; Boyd and Vandenberghe 3.5), so the lanes above the target
    form an interval, and r_tau falls, then rises.  _first_false finds
    its least value from a start lane in O(log T) Newton solves, 3.7 on
    average on the benchmark's grid, with no array of lanes.

    Accuracy: a lane root carries about 1e-13 dB (_lane_root_db), plus
    what j2's error moves, under 1e-9 dB at the edge of its series
    regime (_j2); the benchmark's 1,311 offsets lie within 1e-8 dB of the
    mpmath root.  Where neighbouring roots differ by less than their
    error (from about T = 10^9 on), the search can stop at a lane whose
    root exceeds the least by that error per lane of the flat stretch.
    """
    s = linear_snr(snr)
    p = SisoParams(T=T, tau=1, snr=SnrValue(s))
    return _advantage_at_target(p.T, s, joint_bound_j2(p))


def _advantage_at_target(T: int, s: float, target: float) -> PowerOffset:
    """power_advantage_at_snr(T, s) once the target j2(T, 1, s) is formed
    and checked: lane 1's checks at -60 and +60 dB, then the least lane
    root.  The sweeps pass j2 from a capacity they form once per SNR."""
    for end_db in (-_OFFSET_BRACKET_DB, _OFFSET_BRACKET_DB):  # lane 1 carries the checks
        _check_lane_one(T, linear_snr(s * 10.0 ** (end_db / 10.0)))
    roots = {}

    def root(tau: int) -> float:
        if tau not in roots:
            roots[tau] = _lane_root_db(s, tau, target / (1.0 - tau / T) / LOG2E)
        return roots[tau]

    least = root(_first_false(lambda tau: tau < T - 1 and root(tau + 1) < root(tau), 1, T - 1, _start_lane(s, T)))
    if not -_OFFSET_BRACKET_DB <= least <= _OFFSET_BRACKET_DB:
        raise RuntimeError(f"offset saturated: no crossing within +/-{_OFFSET_BRACKET_DB} dB for T={T}, snr={s!r}")
    return PowerOffset(least / DB_PER_UNIT)


def _first_false(pred, lo: int, hi: int, start: int) -> int:
    """The least t in [lo, hi] where pred(t) is False, for a pred True on
    a prefix of [lo, hi] and False at hi: steps that double from start
    until the verdict flips, then bisection, O(log d) calls of pred for
    an answer d away from start."""
    t, step, up = start, 1, None
    while lo < hi:
        verdict = pred(t)
        lo, hi = (t + 1, hi) if verdict else (lo, t)
        if up is None:
            up = verdict
        if verdict != up:
            break
        t, step = (min(t + step, hi) if up else max(t - step, lo)), 2 * step
    while lo < hi:
        mid = (lo + hi) // 2
        lo, hi = (mid + 1, hi) if pred(mid) else (lo, mid)
    return lo


def _start_lane(s: float, T: int) -> int:
    """A guess of the separate bound's tau* near snr s: the first maximum
    of (1 - tau/T) * log1p(eff_tau), ln(1 + eff) standing for eps_1(1/eff),
    log-concave in tau as the lanes are."""

    def proxy(tau: int) -> float:
        return (1.0 - tau / T) * math.log1p(_eff(s, tau))

    return _first_false(lambda tau: tau < T - 1 and proxy(tau + 1) > proxy(tau), 1, T - 1, 1)


def _lane_root_db(s: float, tau: int, level: float) -> float:
    """The dB shift d at which eps_1(1/eff) = level, eff the effective SNR
    of tau pilots at s * 10^(d/10); +inf at level >= 700 (eff past e^699,
    beyond lane 1's root) and -inf at level <= 1e-300 (below any target
    whose checks pass).

    Newton on eps_1(e^u) = level in u = ln x, from x = 1/expm1(level),
    right of the root as eps_1(x) < ln(1 + 1/x).  eps_1(e^u) falls and is
    convex (its slope is -eps_2(x), its curvature x*(eps_1 - eps_2) > 0),
    so the first step lands left of the root and the rest close in, each
    at most the square of the last: after a step of at most 1e-7, x is
    within 1e-14 of the root of _eps1_estimate(x) = level, itself within
    about 1e-15 of eps_1.  eps_2 is 1 - x*eps_1(x), or its continued
    fraction at large x, where that cancels.  Inverting eff = s^2 tau/(1 +
    s tau + s) moves the SNR by at most eff's relative error e: 4.34 e dB.

    Each step costs one _eps1_estimate call, 4.0 per root over the 116
    roots of sweep_fig2 at its defaults, where a root takes about 5 us of
    CPU on a 2-vCPU x86 host (15-16 us when the series ran all 25 terms).
    """
    if not 1e-300 < level < 700.0:  # 1/expm1(level) is finite and > 0 between
        return math.inf if level >= 700.0 else -math.inf
    x = 1.0 / math.expm1(level)
    for _ in range(_NEWTON_STEPS):
        e1 = _eps1_estimate(x)
        step = (e1 - level) / (1.0 - x * e1 if x < 1e4 else _eps_scalar_cf(2, x))
        if not abs(step) < 1.0:  # a NaN fails too
            break
        x *= math.exp(step)
        if abs(step) <= 1e-7:
            eff = 1.0 / x
            root = eff * ((tau + 1) + math.sqrt((tau + 1) ** 2 + 4.0 * tau / eff)) / (2.0 * tau)
            return 10.0 * (math.log10(root) - math.log10(s))
    raise RuntimeError(f"lane root failed to converge at tau={tau}, level={level!r}")


def single_pilot_advantage(T: int) -> PowerOffset:
    """High-SNR gain of one pilot over none: gamma*log2(e)/T units."""
    T = _check_int("T", T, 2)
    return PowerOffset(EULER_GAMMA * LOG2E / T)


def true_capacity_gap(T: int) -> TrueCapacityGap:
    """Penalty of the true noncoherent capacity asymptote and its gap
    to the Jensen-relaxed joint bound, in 3-dB units.

    exact penalty:    log2(e^{T-1} (T-1)! / T^{T-1}) / (T-1)
    stirling penalty: log2(T) / (2 (T-1))

    The factorial enters through log-gamma, so no overflow.  The gaps
    subtract each penalty from the joint-bound penalty log2(T)/(T-1);
    with Stirling the gap equals the penalty exactly.
    """
    T = _check_int("T", T, 2)
    log2_ratio = LOG2E * ((T - 1) + math.lgamma(T) - (T - 1) * math.log(T))
    pen_exact = log2_ratio / (T - 1)
    pen_stirling = 0.5 * math.log2(T) / (T - 1)
    pi_j2 = asymptote_j2(T)
    return TrueCapacityGap(
        exact=PowerOffset(pen_exact),
        stirling=PowerOffset(pen_stirling),
        gap_exact=PowerOffset(pi_j2 - pen_exact),
        gap_stirling=PowerOffset(pi_j2 - pen_stirling),
    )

