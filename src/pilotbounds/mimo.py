"""MIMO generalizations of the joint and separate bounds.

The capacity functional C_{t,r}(rho) = E[log2 det(I + (rho/t) Z Z†)]
is exact wherever it can be evaluated to full accuracy.  With
m = min(t, r), d = |t - r| and x = t/rho, Telatar's Laguerre form of
the eigenvalue density turns it into a weighted sum of the scalar
channel's partial sums S_n(x) = sum_{k=1}^{n} eps_k(x):

    C_{t,r}(rho) = log2(e) * sum_{j=d}^{d+2m-2} w_j S_{j+1}(x),

    sum_j (w_j/j!) lam^j = lam^d sum_{k<m} k!/(k+d)! [L_k^(d)(lam)]^2.

At m = 1 the only weight is w_{n-1} = 1, and the rank-1 form
log2(e) * S_{max(t,r)}(x) is evaluated directly.  For m >= 2 the
weights alternate in sign, and the sum cancels more as m and d grow.
A guard measures that cancellation on every call,

    kappa = sum_j |w_j S_{j+1}| / |sum_j w_j S_{j+1}|,

and falls back to Monte Carlo (sample_ctr) when kappa > 1e5.  The
relative error of the exact sum stayed below 3e-16 * kappa against
mpmath quadrature for t, r <= 12 and 8 x 32 over -30...60 dB, so an
exact result is good to about 3e-11.  Scanned over -400...300 dB, the
guard admits every size with m <= 4 and max(t, r) <= 20 (kappa <= 2e4
over -30...60 dB) and the square sizes up to 7 x 7; it sends 8 x 8 and
larger square sizes to the sampler at every SNR.

The bounds call the scalar module's expressions with the antenna
counts, which put the per-antenna counterparts in place of T, tau and
C(.); at n_t = n_r = 1 they are the scalar bounds, bit for bit.

Pilot searches reuse one capacity value and, where they sample, common
random draws across tau candidates so Monte Carlo noise cannot flip the
discrete argmax silently; a runner-up within 4 combined standard
errors resolves toward the smaller tau and sets a tie flag.  On exact
candidates the margin is 0 and tau* is the first argmax.
"""

from __future__ import annotations

import functools
import math
from typing import NamedTuple, Sequence

from . import montecarlo as mc
from .expint import LOG2E, _check_argument, _scaled_partial_sums, expint_scaled_sum
from .montecarlo import Estimate, McConfig
from .params import MimoParams, PowerOffset, _check_int, _check_snr_blocklength, linear_snr
from .siso import _effective_snr, _j1, _j1_argument, _j2, _tau_continuous, advantage_units

_TIE_MARGIN_SE = 4.0
# Largest cancellation ratio kappa of the Laguerre sum that is trusted
# (see the module docstring for the measured error per unit of kappa).
_KAPPA_MAX = 1e5


class MimoSeparateResult(NamedTuple):
    value: Estimate
    tau_star: int
    tie_within_margin: bool


class MimoPilotSearch(NamedTuple):
    tau_star: int
    value: Estimate
    tau_star_continuous: float
    tie_within_margin: bool


class GramCheckRow(NamedTuple):
    diagonal: tuple[float, ...]
    estimate: Estimate
    excess_over_uniform: float
    combined_std_error: float
    uniform_not_larger: bool


class GramOptimalityReport(NamedTuple):
    params: MimoParams
    uniform: Estimate
    rows: tuple[GramCheckRow, ...]
    uniform_is_minimal: bool


@functools.lru_cache(maxsize=None)
def _laguerre_weights(m: int, d: int) -> tuple[float, ...]:
    """w_{d+i}, i = 0..2m-2, of the Laguerre sum in the module docstring,
    built exactly in rationals and rounded once."""
    from fractions import Fraction  # first use only: off the import path

    c = [Fraction(0)] * (2 * m - 1)
    for k in range(m):
        # L_k^(d)(lam) = sum_i (-1)^i C(k+d, k-i) lam^i / i!
        lag = [
            Fraction((-1) ** i * math.comb(k + d, k - i), math.factorial(i))
            for i in range(k + 1)
        ]
        scale = Fraction(math.factorial(k), math.factorial(k + d))
        for a, la in enumerate(lag):
            for b, lb in enumerate(lag):
                c[a + b] += scale * la * lb
    return tuple(float(ci * math.factorial(d + i)) for i, ci in enumerate(c))


def _ctr_value(
    t: int,
    r: int,
    rho_linear: float,
    cfg: McConfig,
    workers: int = 1,
    x: float | None = None,
) -> Estimate:
    """C_{t,r}(rho): the rank-1 sum, the Laguerre sum where the
    cancellation guard admits it, else sample_ctr with cfg.

    x optionally supplies the sum argument t/rho directly, for callers
    that can form it with fewer roundings than the quotient.
    """
    if x is None:
        x = t / rho_linear
    m, n = min(t, r), max(t, r)
    if m == 1:
        return Estimate(mean=LOG2E * expint_scaled_sum(n, x), std_error=0.0, samples_used=0)
    sums = _scaled_partial_sums(t + r - 1, _check_argument(x))
    terms = [w * s for w, s in zip(_laguerre_weights(m, n - m), sums[n - m:])]
    total = sum(terms)
    if total > 0.0 and sum(map(abs, terms)) <= _KAPPA_MAX * total:
        return Estimate(mean=LOG2E * total, std_error=0.0, samples_used=0)
    return mc.sample_ctr(t, r, rho_linear, cfg, workers)


def capacity_ctr(t: int, r: int, rho, cfg: McConfig, workers: int = 1) -> Estimate:
    """Ergodic capacity functional C_{t,r}(rho) in bits/s/Hz.

    Exact (std_error 0, samples_used 0) when min(t, r) = 1, and from
    Telatar's Laguerre sum when its cancellation ratio kappa is at most
    1e5 (relative error about 3e-16 * kappa); sampled via sample_ctr
    with cfg otherwise.  Every size with min(t, r) <= 4 and
    max(t, r) <= 20 is exact; 8 x 8 and larger square sizes are sampled.
    """
    t = _check_int("t", t, 1)
    r = _check_int("r", r, 1)
    return _ctr_value(t, r, linear_snr(rho), cfg, workers)


def mimo_joint_j1(p: MimoParams, cfg: McConfig, workers: int = 1) -> Estimate:
    """Joint-processing lower bound

        (1 - tau/T) * C_{n_t,n_r}(snr) - (n_r/T) * C_{n_t,T-tau}(snr_p),

    with snr_p = snr/(1 + snr*tau/n_t).  The capacity term draws from
    cfg, the penalty term from cfg.substream(1).
    """
    s = p.snr.linear
    c1 = _ctr_value(p.n_t, p.n_r, s, cfg, workers)
    return _j1_candidate(p.n_t, p.n_r, p.T, p.tau, s, c1, cfg.substream(1), workers)


def _j1_candidate(
    n_t: int, n_r: int, T: int, tau: int, s: float, c1: Estimate, pen_cfg: McConfig, workers: int
) -> Estimate:
    """mimo_joint_j1 at one tau given its capacity term c1; the penalty draws from pen_cfg."""
    rho_p = s / (1.0 + s * tau / n_t)
    c2 = _ctr_value(n_t, T - tau, rho_p, pen_cfg, workers, x=_j1_argument(tau, s, n_t))
    return Estimate(
        mean=_j1(tau, T, c1.mean, c2.mean, n_r),
        std_error=math.hypot((1.0 - tau / T) * c1.std_error, (n_r / T) * c2.std_error),
        samples_used=c1.samples_used + c2.samples_used,
    )


def mimo_joint_j2(p: MimoParams, cfg: McConfig, workers: int = 1) -> Estimate:
    """Jensen-relaxed joint bound

        (1 - tau/T) * C_{n_t,n_r}(snr)
            - (n_t*n_r/T) * log2((1 + snr*T/n_t)/(1 + snr*tau/n_t)).
    """
    c1 = _ctr_value(p.n_t, p.n_r, p.snr.linear, cfg, workers)
    return Estimate(
        mean=_j2((p.tau,), p.T, p.snr.linear, c1.mean, p.n_t, p.n_r)[0],
        std_error=(1.0 - p.tau / p.T) * c1.std_error,
        samples_used=c1.samples_used,
    )


def _scan_candidates(estimates: Sequence[Estimate]) -> tuple[int, bool]:
    """Argmax over estimates with the smaller-tau-on-tie policy."""
    best = 0
    for i in range(1, len(estimates)):
        if estimates[i].mean > estimates[best].mean:
            best = i
    chosen = best
    tie = False
    for i in range(best):
        gap = estimates[best].mean - estimates[i].mean
        margin = _TIE_MARGIN_SE * math.hypot(
            estimates[best].std_error, estimates[i].std_error
        )
        if gap < margin:
            chosen = i
            tie = True
            break
    return chosen, tie


def mimo_separate(
    n_t: int,
    n_r: int,
    T: int,
    snr,
    cfg: McConfig,
    workers: int = 1,
) -> MimoSeparateResult:
    """Best separate-processing efficiency with the scalar recipe applied
    per antenna: tau_bar = tau/n_t pilot uses, effective SNR from the
    per-antenna MMSE, capacity through C_{n_t,n_r}.

    Searches integer tau in [n_t, T-1].  Every candidate goes through
    the same C_{t,r} path as capacity_ctr.  Sampled candidates share cfg
    (common random draws), so comparisons are far tighter than the
    reported per-point standard errors suggest.
    """
    n_t = _check_int("n_t", n_t, 1)
    n_r = _check_int("n_r", n_r, 1)
    # at least one data symbol after the n_t pilots
    T = _check_int("T", T, n_t + 1)
    s = linear_snr(snr)
    _check_snr_blocklength(s, T)
    taus = list(range(n_t, T))
    estimates = []
    for tau, eff in zip(taus, _effective_snr(s, taus, n_t).tolist()):
        c = _ctr_value(n_t, n_r, eff, cfg, workers)
        share = 1.0 - tau / T
        estimates.append(c._replace(mean=share * c.mean, std_error=share * c.std_error))
    idx, tie = _scan_candidates(estimates)
    return MimoSeparateResult(value=estimates[idx], tau_star=taus[idx], tie_within_margin=tie)


def mimo_optimize_pilots(
    n: int,
    T: int,
    snr,
    cfg: McConfig,
    workers: int = 1,
) -> MimoPilotSearch:
    """Exhaustive pilot search of the joint bound for n_t = n_r = n over
    tau in {0} U [n, T-1].

    One capacity estimate is shared by every candidate, and penalty
    terms share cfg.substream(1).  The continuous relaxation
    n * (log2(e)/(C_{n,n}/n) - 1/snr) is reported for reference.
    """
    n = _check_int("n", n, 1)
    T = _check_int("T", T, 2)
    s = linear_snr(snr)
    _check_snr_blocklength(s, T)
    c1 = _ctr_value(n, n, s, cfg, workers)
    if c1.mean == 0.0:
        # every sampled log2 det rounded to 0: the relaxation divides by it
        raise ValueError(f"sampled capacity is 0 at snr={s!r}, below what the sampler resolves")
    pen_cfg = cfg.substream(1)
    taus = [0] + [tau for tau in range(n, T)]
    estimates = [_j1_candidate(n, n, T, tau, s, c1, pen_cfg, workers) for tau in taus]
    idx, tie = _scan_candidates(estimates)
    return MimoPilotSearch(
        tau_star=taus[idx],
        value=estimates[idx],
        tau_star_continuous=_tau_continuous(c1.mean, s, n),
        tie_within_margin=tie,
    )


def mimo_power_advantage_asymptotic(n: int, T: int) -> PowerOffset:
    """High-SNR joint-over-separate advantage at effective blocklength T/n."""
    n = _check_int("n", n, 1)
    T = _check_int("T", T, n + 1)
    return PowerOffset(advantage_units(T / n))


def pilot_gram_optimality_check(
    p: MimoParams,
    perturbations: Sequence[Sequence[float]],
    cfg: McConfig,
    workers: int = 1,
) -> GramOptimalityReport:
    """Check that the uniform pilot Gram diag(tau, ..., tau) minimizes the
    estimation penalty against the supplied diagonal perturbations.

    Every evaluation uses the same cfg, hence the same draws: the
    uniform diagonal re-submitted as a perturbation gives an excess of
    exactly zero, and genuine perturbations are compared with highly
    correlated noise.  A perturbation passes when its penalty is no
    more than 4 combined standard errors below the uniform one.
    """
    uniform = (float(p.tau),) * p.n_t
    base = mc.sample_delta_mimo(p, uniform, cfg, workers)
    rows = []
    all_ok = True
    for diag in perturbations:
        diag_t = tuple(float(v) for v in diag)
        est = mc.sample_delta_mimo(p, diag_t, cfg, workers)
        excess = est.mean - base.mean
        se = math.hypot(base.std_error, est.std_error)
        ok = excess >= -_TIE_MARGIN_SE * se
        rows.append(
            GramCheckRow(
                diagonal=diag_t,
                estimate=est,
                excess_over_uniform=excess,
                combined_std_error=se,
                uniform_not_larger=ok,
            )
        )
        all_ok = all_ok and ok
    return GramOptimalityReport(
        params=p, uniform=base, rows=tuple(rows), uniform_is_minimal=all_ok
    )
