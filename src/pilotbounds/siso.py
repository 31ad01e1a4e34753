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
    _SERIES_TERMS,
    _check_argument,
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
# power_advantage_at_snr confirms a window of half-width
# _ROOT_HALF_WIDTH_DB + _ROOT_STAIR_DB/(snr*tau) around the estimated
# root, trying at most _LANE_TRIES lanes.  The second term serves low SNR,
# where the float 1 - mmse in the effective SNR, mmse = 1/(1 + snr*tau),
# is a staircase of steps 2^-53 that moves the lane's root by up to about
# 4.8e-16/(snr*tau) dB.  A bisection step more than _REPLAY_MARGIN_DB
# past the window takes the decisions of the window's end.
_ROOT_HALF_WIDTH_DB = 1e-9
_ROOT_STAIR_DB = 2e-15
_REPLAY_MARGIN_DB = 1e-7
_LANE_TRIES = 5
_NEWTON_STEPS = 40
# power_advantage_at_snr raises its bound on the lanes at -60 dB by the
# relative margin _END_MARGIN, and lets a certified bracket end's sign
# stand for its gap only where the target and the certificate's margin
# reach _SIGN_GUARD
_END_MARGIN = 1e-9
_SIGN_GUARD = 2.0**-480
# the joint searches evaluate their kept pilot counts this many at a time;
# at low SNR and huge T the prefix can run to 10^11 lanes
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
    return SnrValue(_effective_snr(s, (_check_int("tau", tau, 1),))[0])


def _effective_snr(s: float, taus, n_t: int = 1) -> np.ndarray:
    """snr_effective at each of the ascending integers taus, from the MMSE 1/(1 + snr*tau/n_t)."""
    m = 1.0 / (1.0 + s * (np.asarray(taus) / n_t))
    eff = s * (1.0 - m) / (1.0 + s * m)
    if eff[0] == 0.0:  # eff grows with tau; n_t/eff is undefined
        raise ValueError(f"effective SNR at tau={taus[0]} rounds to 0 at snr={s!r}")
    return eff


def _j1(tau, T: int, c: float, penalty, n_r: int = 1):
    """j1 from its penalty at one tau or an array of them; dividing by T/n_r
    keeps n_r = 1 bit-equal, and n_r = T, tau = 0 gives exactly C - C."""
    return (1.0 - tau / T) * c - penalty / (T / n_r)


def _j1_argument(tau, s: float, n_t: int = 1):
    """Argument of the eps_k sums in the j1 penalty."""
    return tau + n_t / s


def _j2(taus, T: int, s: float, c: float, n_t: int = 1, n_r: int = 1) -> list[float]:
    """j2 at each of taus, by math.log2: np.log2 differs in the last bit
    for some arguments, which would move a search's tau* at ties."""
    top = 1.0 + s * T / n_t
    n_t, dims = float(n_t), float(n_t * n_r)  # exact; spares each lane two int-to-float conversions
    return [(1.0 - tau / T) * c - dims * math.log2(top / (1.0 + s * tau / n_t)) / T for tau in taus]


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
    taus = np.arange(1, T)
    return _separate_best(T, snr, taus, 1.0 - taus / T)


def _separate_best(T: int, snr, taus: np.ndarray, share: np.ndarray) -> SeparateBound:
    """separate_bound for a validated T, given taus = 1..T-1 and
    share = 1 - taus/T, with its checks and messages."""
    values = _separate_values(T, snr, taus, share)
    best = int(np.argmax(values))
    return SeparateBound(value=float(values[best]), tau_star=best + 1)


def _separate_values(T: int, snr, taus: np.ndarray, share: np.ndarray) -> np.ndarray:
    """The separate bound's lane share * C(eff) at each of taus."""
    return share * (LOG2E * _eps1_lanes(_separate_arguments(T, snr, taus)))


def _separate_arguments(T: int, snr, taus) -> np.ndarray:
    """The eps_1 arguments 1/eff of the separate bound at the ascending
    taus, taus[0] = 1, after every check separate_bound makes.  eff
    ascends with tau, so 1/eff[0] is the largest argument and the only
    one that can fail eps1_array's check."""
    s = linear_snr(snr)
    _check_snr_blocklength(s, T)
    x = 1.0 / _effective_snr(s, taus)
    if math.isinf(x[0]):
        raise ValueError(_BAD_ARGUMENTS)
    return x


def joint_bound_j1(p: SisoParams) -> float:
    """Joint-processing lower bound

        (1 - tau/T) * C(snr) - (log2 e / T) * sum_{k=1}^{T-tau} eps_k(tau + 1/snr).

    tau = 0 gives the data-only (no pilot) form of the same bound.
    """
    s = p.snr.linear
    c = capacity_csi(p.snr)
    return _j1(p.tau, p.T, c, LOG2E * expint_scaled_sum(p.T - p.tau, _j1_argument(p.tau, s)))


def joint_bound_j2(p: SisoParams) -> float:
    """Jensen-relaxed joint bound

        (1 - tau/T) * C(snr) - (1/T) * log2((1 + snr*T)/(1 + snr*tau)).
    """
    return _j2((p.tau,), p.T, p.snr.linear, capacity_csi(p.snr))[0]


_JOINT_KINDS = ("j1", "j2")


def optimize_pilots_joint(T: int, snr, which: str = "j1") -> PilotSearch:
    """Pilot-count search for the selected joint bound, exact as an
    exhaustive one.

    Searches integer tau in [0, T-1]; ties resolve to the smallest tau.
    The continuous relaxation tau* = log2(e)/C - 1/snr is reported for
    reference only (it lies in [0, 1], up to float cancellation at
    extreme SNR) and never decides the integer answer.

    Both searches evaluate only the pilot counts that can still win
    (_first_max), and stay exact.  j1(tau) is (1 - tau/T)*C less a
    penalty >= 0, and j2(tau) is (1 - tau/T)*C less a log2 of a ratio
    >= 1, also >= 0, so (1 - tau/T)*C bounds either bit for bit.  At low
    SNR the kept prefix still runs to about log2(1 + snr*T)/C lanes,
    about 10^11 at T = 10^15 and -100 dB, and its time grows with it.

    j1 also passes a floor on its penalty (_penalty_floor, with its
    proof): with n = T - tau and x = tau + 1/snr, the continued
    fraction's second approximant bounds each eps_k(x) from below, and a
    trapezoid and a midpoint rule sum those bounds in closed form.
    Lowered by the relative margin 1e-9 + 1e-15*n, which covers the
    kernel's summation error, and divided by T, it bounds the float
    penalty from below.  Only the prefix lanes whose bound less that
    floor exceeds the best are summed: at T = 1000, 131 / 43 / 7 / 0 of
    998 / 998 / 998 / 994 at -100 / -90 / -75 / -50 dB, and none from
    -60 dB up in 2.5 dB steps; at T = 10^6 and -40 dB, 1.  From -90 dB
    down the margin, not the bound, limits the pruning.
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
            lambda taus: _j1_values(np.asarray(taus), T, s, c),
            T,
            c,
            1,
            floor=lambda taus: _penalty_floor(T - taus, _j1_argument(taus, s)) / T,
        )
    else:
        best, value = _first_max(lambda taus: _j2(taus, T, s, c), T, c, 1)
    continuous = _tau_continuous(c, s)
    return PilotSearch(tau_star=best, value=value, tau_star_continuous=continuous)


def _j1_values(taus: np.ndarray, T: int, s: float, c: float) -> np.ndarray:
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
    near n/(2x) at large x.  Formed from the products P(a), not from
    differences such as 1/(x + 1) - 1/(x + n + 1), each term carries a
    few roundings relative to itself, so the clamped difference is off
    by under ulp(n/(2x)), far inside the margin.  A subtracted form lay
    above the float sum from about x = 6.5e7 up, at every n tested.

    At large x the bound falls short of the exact sum by about 1/(4x^2)
    relative (2.9e-9 at x = 10^4, n = 100), where log1p(n/(x + 1))
    alone falls short by 1/(2x); from x of about 3*10^4 on, the margin
    is most of the gap."""
    xa, xb, xc = x + 0.5, x + 1.0, x + 2.0
    h_floor = xc / 4.0 * (n / (xb * (xb + n)) + n / (xc * (xc + n))) - x / 2.0 * (n / (xa * (xa + n)))
    total = np.log1p((n - 1) / xb) + (1.0 / xb + 1.0 / (x + n)) / 2.0 + np.maximum(h_floor, 0.0)
    return LOG2E * total * (1.0 - (_FLOOR_MARGIN + _FLOOR_MARGIN_PER_ORDER * n))


def _first_max(values, T: int, c: float, first: int, floor=None) -> tuple[int, float]:
    """(tau*, value), the first maximum over tau in {0} U [first, T-1]
    of a bound that values(taus) gives at each tau of a range or an
    ascending integer array, and that is (1 - tau/T)*c, c > 0, less a
    number >= 0, formed as the callers form it.  A rounded subtraction of a non-negative number never exceeds
    what it subtracts from, so the float (1 - tau/T)*c bounds it bit for
    bit.  The head {0, first} (only 0 when first >= T) comes first; a
    later tau whose float bound does not exceed the head's best can be
    neither larger nor, being later, the first maximum.  tau/T, the
    subtraction and the product with c are each rounded monotonically,
    so the float bound is non-increasing in tau, and the tau > first
    kept are a prefix, found by bisection and evaluated in calls of at
    most _PREFIX_CHUNK lanes, so memory stays bounded.  Each lane is
    bit-equal whatever its batch, and np.argmax and the strict > give
    ties to the smaller tau, so the result is the exhaustive scan's.

    floor(taus), if given, bounds the float number subtracted from below
    at an array of taus.  A lane of the prefix is then evaluated only if
    (1 - tau/T)*c - floor(tau), its first term formed as _j1 forms it,
    exceeds the best before its chunk: the rounded subtraction is
    monotone, so a lane that fails can be neither larger nor first."""
    taus = range(0, min(first + 1, T), first)
    head = values(taus)
    i = int(np.argmax(head))
    best, value = taus[i], float(head[i])
    lo, hi = first + 1, T  # the prefix ends at the first tau in [lo, hi] whose bound fails
    while lo < hi:
        mid = (lo + hi) // 2
        if (1.0 - mid / T) * c > value:
            lo = mid + 1
        else:
            hi = mid
    for start in range(first + 1, lo, _PREFIX_CHUNK):
        taus = range(start, min(start + _PREFIX_CHUNK, lo))
        if floor is not None:
            lanes = np.asarray(taus)
            taus = lanes[(1.0 - lanes / T) * c - floor(lanes) > value]
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

    Strict monotonicity of the separate bound in SNR makes the root
    unique.  At small T and finite SNR the separate bound can already
    exceed the joint bound, so delta may be negative; the bisection
    bracket is [-60, +60] dB and the root is located to 1e-6 dB, bit for
    bit where scipy.optimize.bisect locates it on separate_bound.

    The bracket ends are certified, the root found first, and the
    bisection replayed.  An offset evaluates one full separate bound per
    lane tried, in one kernel call with a single lane, and one per replay
    step near the root; each lane is bit-equal whatever its batch, so
    every value is the full bound's.

    Checks: the target's checks come first, then lane 1 of the separate
    bound runs _separate_arguments at -60 and then at +60 dB.  Those are
    every check separate_bound makes (snr*T overflow, an effective SNR
    that rounds to 0, an infinite eps_1 argument), and they are monotone
    in SNR, so no SNR inside the bracket raises once both ends have
    passed, and the exceptions keep their types, messages and order.
    Every argument is then finite and > 0, where the kernel returns
    finite values, so no gap is NaN.

    Ends: at -60 dB, every float lane share * LOG2E * eps_1(x) lies below
    LOG2E * log1p(1/x_min), x_min the argument of lane T-1: share <= 1,
    eps_1(x) < ln(1 + 1/x) (A&S 5.1.20), and x does not grow with tau,
    since the float effective SNR is formed by monotone roundings and so
    does not decrease in tau.  Raised by the relative margin
    _END_MARGIN = 1e-9, which covers the kernel's 1e-12 and a few
    roundings, that bound below the target proves g_lo < 0 with no
    kernel call.  At +60 dB, lane 1 above the target proves g_hi > 0,
    since the bound is its largest lane; that lane shares one kernel
    call with the target's eps_1.  Where a certificate fails, the end's
    full bound is evaluated, as it is where the guard below fails.

    Signs for gaps: _bisect and the saturation test use g_hi only through
    g_lo * g_hi > 0, fb == 0 and a NaN test, and g_lo through those and
    through gap * g_lo >= 0 at each step.  A certified end passes -1.0 or
    +1.0 for its gap.  That reads the same in every test unless a product
    of the true gap with another nonzero gap g would round to zero.  With
    target > 0 of exponent e, |g| >= target * 2^-54: if |value| >= 2^(e-1)
    both terms of g = value - target are multiples of 2^(e-53), and
    otherwise |g| > target/2.  A certified gap is at least its margin in
    magnitude (target less the low certificate, or lane 1 less the
    target), as rounding is monotone.  The guard asks the target and the
    margin to reach _SIGN_GUARD = 2^-480, so each such product is at
    least 2^-1014 in magnitude: a normal float of the sign of its factors.

    Root: the start lane, the argmax of share * log1p(eff) at snr in one
    numpy pass, guesses tau* at the root.  Newton on eps_1 and the
    inverse of the effective SNR give the dB shift r where that lane
    meets the target (_lane_root_db).  Both are guesses and decide
    nothing; evaluated values confirm them.  One kernel call evaluates
    the full bound at a = r - h and the lane at b = r + h.  The lane must
    exceed the target, so the full bound, its largest lane, does too,
    and the full bound at a must fall short of it.  Where it does not
    and its tau* differs, that lane is tried next, a bounded number of
    times.

    Replay: _bisect runs its own step sequence and uses a gap only
    through gap * g_lo >= 0 and gap == 0.  A step left of a - margin
    takes the decisions of gap(a) < 0; any product of two negatives,
    even one that underflows, is >= 0.  A step right of b + margin takes
    those of the lane's gap at b, if its product with g_lo does not
    round to -0.0, which would read as >= 0.  Every other step evaluates
    the full gap.  Where the root is not confirmed, every step does.

    Margin: the float bound is not proven monotone in SNR to the ulp.
    Each lane carries at most the kernel's documented relative error of
    1e-12 and a few roundings of its effective SNR; at low SNR the float
    1 - mmse in the effective SNR is a staircase, but it only steps up,
    and between its steps eff still rises as snr does.  So the float bound
    rises, relative to itself, by at least about min(0.23, 0.33/C) per
    dB, C in bits, and C stays below about 1000 bits below the snr*T
    overflow guard (about 3080 dB).  Over _REPLAY_MARGIN_DB = 1e-7 dB
    that is 3.3e-11, over ten times the 2e-12 that the errors of two
    evaluations can take away, so a skipped step's gap lies on the side
    of gap(a) or gap(b) that the step lies of a or b.
    """
    s = linear_snr(snr)
    p = SisoParams(T=T, tau=1, snr=SnrValue(s))
    x_c = _check_argument(1.0 / s)  # capacity_csi's check, before the bracket's
    taus = np.arange(1, p.T)
    share = 1.0 - taus / p.T
    lo, hi = -_OFFSET_BRACKET_DB, _OFFSET_BRACKET_DB

    def at(delta_db: float) -> float:
        return s * 10.0 ** (delta_db / 10.0)

    def gap(delta_db: float) -> float:
        return _separate_best(p.T, at(delta_db), taus, share).value - target

    # lane 1 carries the checks; lane T-1 has the least argument at -60 dB
    x_lo = _separate_arguments(p.T, at(lo), taus[[0, -1]])
    x_hi = _separate_arguments(p.T, at(hi), taus[:1])
    eps = _eps1_lanes(np.array([x_c, x_hi[0]]))
    target = _j2((1,), p.T, s, LOG2E * float(eps[0]))[0]  # joint_bound_j2, bit for bit
    lane_hi = float(share[0] * (LOG2E * eps[1]))
    cert_lo = LOG2E * math.log1p(1.0 / float(x_lo[-1])) * (1.0 + _END_MARGIN)
    g_lo = _end_sign(-1.0, target - cert_lo, target)
    if g_lo is None:
        g_lo = gap(lo)
    g_hi = _end_sign(1.0, lane_hi - target, target)
    if g_hi is None:
        g_hi = gap(hi)
    if g_lo * g_hi > 0.0:
        raise RuntimeError(
            f"offset saturated: no crossing within +/-{_OFFSET_BRACKET_DB} dB "
            f"for T={T}, snr={s!r}"
        )

    def window(tau: int):
        """(a, gap(a), b, the lane's gap at b) around the root, or None."""
        for _ in range(_LANE_TRIES):
            share_tau = float(share[tau - 1])
            r = _lane_root_db(s, tau, target / share_tau / LOG2E)
            if r is None or not lo < r < hi:
                return None
            h = _ROOT_HALF_WIDTH_DB + _ROOT_STAIR_DB / (s * 10.0 ** (r / 10.0) * tau)
            a, b = r - h, r + h
            if not lo < a < b < hi:
                return None
            # the full bound at a and lane tau at b in one kernel call; a
            # and b lie strictly inside the bracket whose ends passed the checks
            x_b = _separate_arguments(p.T, at(b), taus[[0, tau - 1]])
            e = LOG2E * _eps1_lanes(np.append(_separate_arguments(p.T, at(a), taus), x_b[-1]))
            g_b = float(share_tau * e[-1]) - target
            if not g_b > 0.0:
                return None
            values = share * e[:-1]
            best = int(np.argmax(values))
            g_a = float(values[best]) - target
            if g_a < 0.0:
                return a, g_a, b, g_b
            if best + 1 == tau:
                return None
            tau = best + 1
        return None

    left, g_a, right, g_b = -math.inf, None, math.inf, None
    found = window(_start_lane(s, taus, share)) if g_lo < 0.0 < g_hi else None
    if found is not None:
        a, g_a, b, g_b = found
        left = a - _REPLAY_MARGIN_DB
        if g_b * g_lo != 0.0:
            right = b + _REPLAY_MARGIN_DB

    def step_gap(delta_db: float) -> float:
        if delta_db < left:
            return g_a
        if delta_db > right:
            return g_b
        return gap(delta_db)

    root_db = _bisect(step_gap, lo, hi, g_lo, g_hi, xtol=1e-6)
    return PowerOffset(root_db / DB_PER_UNIT)


def _start_lane(s: float, taus: np.ndarray, share: np.ndarray) -> int:
    """A guess of the separate bound's tau* near snr s: the argmax of
    share * log1p(eff), with the upper bound ln(1 + eff) on eps_1(1/eff)
    in place of each lane.  Lane 1 has passed its checks at -60 dB, so
    eff at s does not round to 0."""
    return int(np.argmax(share * np.log1p(_effective_snr(s, taus)))) + 1


def _end_sign(sign: float, margin: float, target: float) -> float | None:
    """sign, to stand for a bracket end's gap that has that sign by at
    least margin, where the guard keeps its products with other gaps
    normal; None where the end's full bound must be evaluated."""
    if margin >= _SIGN_GUARD and target >= _SIGN_GUARD:
        return sign
    return None


def _lane_root_db(s: float, tau: int, level: float) -> float | None:
    """Estimate of the dB shift d at which eps_1(1/eff) = level, eff the
    effective SNR of tau pilots at s * 10^(d/10); None where none is found.

    Newton on eps_1(e^u) = level in u = ln x starts at x = 1/expm1(level),
    right of the root since eps_1(x) < ln(1 + 1/x).  The slope is
    -eps_2(x), from 1 - x*eps_1(x) at small x and from its continued
    fraction at large x, where that form cancels.  Each step moves x by
    a factor, so x stays positive.  eff = s^2 tau/(1 + s tau + s) is
    then inverted in a form that does not overflow.  A guess only: it
    neither raises nor warns.
    """
    if not 1e-300 < level < 700.0:  # 1/expm1(level) is finite and > 0
        return None
    x = 1.0 / math.expm1(level)
    for _ in range(_NEWTON_STEPS):
        e1 = _eps1_estimate(x)
        step = (e1 - level) / (1.0 - x * e1 if x < 1e4 else _eps_scalar_cf(2, x))
        if not abs(step) < 1.0:  # a NaN fails too
            return None
        x *= math.exp(step)
        if not 0.0 < x < math.inf:
            return None
        if abs(step) <= 1e-7:  # the next step would be below 1e-14
            break
    else:
        return None
    eff = 1.0 / x
    root = eff * ((tau + 1) + math.sqrt((tau + 1) ** 2 + 4.0 * tau / eff)) / (2.0 * tau)
    if not 0.0 < root < math.inf:
        return None
    return 10.0 * (math.log10(root) - math.log10(s))


def _eps1_estimate(x: float) -> float:
    """eps_1(x) for _lane_root_db: the kernel's continued fraction at x >= 1,
    below it the kernel's series by math.log and math.exp, which can
    differ from a lane of the kernel in the last bit."""
    # Below x = 1 the kernel's scalar eps_1 runs the series on a 1-element
    # numpy array, 57-134 us a call against about 5 us here (ROADMAP
    # item 7), and the Newton loop calls it 3-4 times per lane tried.
    # With the kernel in the loop, siso_closed_form on a 2-vCPU VM read
    # ops_per_cpu_s 3261 [2909, 3560] against 3701 [3278, 3852] with this
    # copy, and cpu_p90_ms 0.68 against 0.55 ms (10 alternating 20 s
    # pairs, medians [quartiles]).  Once the scalar seed is cheap, call
    # _eps_scalar(1, x) instead.
    if x >= 1.0:
        return _eps_scalar_cf(1, x)
    acc = -EULER_GAMMA - math.log(x) + x
    term = x
    for n in range(1, _SERIES_TERMS):
        term *= -x * n / (n + 1.0) ** 2
        acc += term
    return math.exp(x) * acc


# the step sequence, stopping rule and NaN check of scipy.optimize.bisect
# at its default rtol and maxiter, so roots match it bit for bit
_BISECT_RTOL = 4.0 * float(np.finfo(float).eps)
_BISECT_MAXITER = 100


def _bisect(f, xa: float, xb: float, fa: float, fb: float, xtol: float) -> float:
    """Root of f in [xa, xb], given fa = f(xa) and fb = f(xb) of opposite sign."""
    _check_not_nan(xa, fa)
    _check_not_nan(xb, fb)
    if fa == 0.0:
        return xa
    if fb == 0.0:
        return xb
    dm = xb - xa
    for _ in range(_BISECT_MAXITER):
        dm *= 0.5
        xm = xa + dm
        fm = f(xm)
        _check_not_nan(xm, fm)
        if fm * fa >= 0.0:
            xa = xm
        if fm == 0.0 or abs(dm) < xtol + _BISECT_RTOL * abs(xm):
            return xm
    raise RuntimeError(f"Failed to converge after {_BISECT_MAXITER} iterations, value is {xa}")


def _check_not_nan(x: float, fx: float) -> None:
    if math.isnan(fx):
        raise ValueError(f"The function value at x={x} is NaN; solver cannot continue.")


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

