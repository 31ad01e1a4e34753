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

from .expint import EULER_GAMMA, LOG2E, _scaled_sums, eps1_array, expint_scaled, expint_scaled_sum
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


def _tau_continuous(c: float, s: float, n: int = 1) -> float:
    """Continuous relaxation of the pilot search for n_t = n_r = n."""
    return n * (LOG2E / (c / n) - 1.0 / s)


def separate_bound(T: int, snr) -> SeparateBound:
    """Best separate-processing efficiency max_tau (1 - tau/T) * C(snr_eff).

    The maximization over integer tau in [1, T-1] is exhaustive; ties
    resolve to the smallest tau.
    """
    T = _check_int("T", T, 2)
    s = linear_snr(snr)
    _check_snr_blocklength(s, T)
    taus = np.arange(1, T)
    eff = _effective_snr(s, taus)
    values = (1.0 - taus / T) * (LOG2E * eps1_array(1.0 / eff))
    best = int(np.argmax(values))
    return SeparateBound(value=float(values[best]), tau_star=best + 1)


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
    """Exhaustive pilot-count search for the selected joint bound.

    Searches integer tau in [0, T-1]; ties resolve to the smallest tau.
    The continuous relaxation tau* = log2(e)/C - 1/snr is reported for
    reference only (it lies in [0, 1], up to float cancellation at
    extreme SNR) and never decides the integer answer.
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
        taus = np.arange(T)
        values = _j1(taus, T, c, LOG2E * _scaled_sums(T - taus, _j1_argument(taus, s)))
    else:
        values = np.array(_j2(range(T), T, s, c))
    best = int(np.argmax(values))
    continuous = _tau_continuous(c, s)
    return PilotSearch(tau_star=best, value=float(values[best]), tau_star_continuous=continuous)


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
    bracket is [-60, +60] dB and the root is located to 1e-6 dB.
    """
    s = linear_snr(snr)
    target = joint_bound_j2(SisoParams(T=T, tau=1, snr=SnrValue(s)))

    def gap(delta_db: float) -> float:
        return separate_bound(T, s * 10.0 ** (delta_db / 10.0)).value - target

    lo, hi = -_OFFSET_BRACKET_DB, _OFFSET_BRACKET_DB
    g_lo, g_hi = gap(lo), gap(hi)
    if g_lo * g_hi > 0.0:
        raise RuntimeError(
            f"offset saturated: no crossing within +/-{_OFFSET_BRACKET_DB} dB "
            f"for T={T}, snr={s!r}"
        )
    root_db = _bisect(gap, lo, hi, g_lo, g_hi, xtol=1e-6)
    return PowerOffset(root_db / DB_PER_UNIT)


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

