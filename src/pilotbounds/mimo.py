"""MIMO generalizations of the joint and separate bounds.

The capacity functional C_{t,r}(rho) = E[log2 det(I + (rho/t) Z Z†)]
is sampled by Monte Carlo except when min(t, r) = 1, where it reduces
to the same scaled-exponential-integral sums as the scalar channel:

    C_{t,r}(rho) = log2(e) * sum_{k=1}^{max(t,r)} eps_k(t/rho).

All bound formulas mirror the scalar module with T, tau, and C(.)
replaced by their per-antenna counterparts; at n_t = n_r = 1 every
operation here reproduces its scalar counterpart bit for bit on the
closed-form paths (the expressions are evaluated in the same order
with the same arguments).

Sampled pilot searches reuse one capacity estimate and common random
draws across tau candidates so Monte Carlo noise cannot flip the
discrete argmax silently; a runner-up within 4 combined standard
errors resolves toward the smaller tau and sets a tie flag.
"""

from __future__ import annotations

import math
from typing import NamedTuple, Sequence

from . import montecarlo as mc
from .expint import LOG2E, expint_scaled_sum
from .montecarlo import Estimate, McConfig
from .params import MimoParams, PowerOffset, _check_int, linear_snr
from .siso import advantage_units

_TIE_MARGIN_SE = 4.0


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


def _ctr_value(
    t: int,
    r: int,
    rho_linear: float,
    cfg: McConfig,
    workers: int = 1,
    rank1_x: float | None = None,
) -> Estimate:
    """Closed form when one side is a single antenna, else Monte Carlo.

    rank1_x optionally supplies the sum argument t/rho directly, for
    callers that can form it with fewer roundings than the reciprocal.
    """
    if min(t, r) == 1:
        x = rank1_x if rank1_x is not None else t / rho_linear
        return Estimate(mean=LOG2E * expint_scaled_sum(max(t, r), x), std_error=0.0, samples_used=0)
    return mc.sample_ctr(t, r, rho_linear, cfg, workers)


def capacity_ctr(t: int, r: int, rho, cfg: McConfig, workers: int = 1) -> Estimate:
    """Ergodic capacity functional C_{t,r}(rho) in bits/s/Hz.

    Exact (std_error 0, samples_used 0) when min(t, r) = 1; sampled via
    sample_ctr otherwise.
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
    rho_eff = s / (1.0 + s * p.tau / p.n_t)
    c2 = _ctr_value(
        p.n_t,
        p.T - p.tau,
        rho_eff,
        cfg.substream(1),
        workers,
        rank1_x=p.tau + p.n_t / s,
    )
    value = (1.0 - p.tau / p.T) * c1.mean - p.n_r * c2.mean / p.T
    err = math.hypot((1.0 - p.tau / p.T) * c1.std_error, (p.n_r / p.T) * c2.std_error)
    return Estimate(mean=value, std_error=err, samples_used=c1.samples_used + c2.samples_used)


def mimo_joint_j2(p: MimoParams, cfg: McConfig, workers: int = 1) -> Estimate:
    """Jensen-relaxed joint bound

        (1 - tau/T) * C_{n_t,n_r}(snr)
            - (n_t*n_r/T) * log2((1 + snr*T/n_t)/(1 + snr*tau/n_t)).
    """
    s = p.snr.linear
    c1 = _ctr_value(p.n_t, p.n_r, s, cfg, workers)
    value = (1.0 - p.tau / p.T) * c1.mean - (p.n_t * p.n_r) * math.log2(
        (1.0 + s * p.T / p.n_t) / (1.0 + s * p.tau / p.n_t)
    ) / p.T
    return Estimate(
        mean=value,
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

    Searches integer tau in [n_t, T-1].  Sampled candidates share cfg
    (common random draws), so comparisons are far tighter than the
    reported per-point standard errors suggest.
    """
    n_t = _check_int("n_t", n_t, 1)
    n_r = _check_int("n_r", n_r, 1)
    # at least one data symbol after the n_t pilots
    T = _check_int("T", T, n_t + 1)
    s = linear_snr(snr)
    taus = list(range(n_t, T))
    estimates = []
    for tau in taus:
        tau_bar = tau / n_t
        mmse = 1.0 / (1.0 + s * tau_bar)
        eff = s * (1.0 - mmse) / (1.0 + s * mmse)
        if min(n_t, n_r) == 1:
            value = (1.0 - tau / T) * (LOG2E * expint_scaled_sum(max(n_t, n_r), n_t / eff))
            estimates.append(Estimate(mean=value, std_error=0.0, samples_used=0))
        else:
            c = mc.sample_ctr(n_t, n_r, eff, cfg, workers)
            estimates.append(
                Estimate(
                    mean=(1.0 - tau / T) * c.mean,
                    std_error=(1.0 - tau / T) * c.std_error,
                    samples_used=c.samples_used,
                )
            )
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
    c1 = _ctr_value(n, n, s, cfg, workers)
    if c1.mean == 0.0:
        # every sampled log2 det rounded to 0: the relaxation divides by it
        raise ValueError(f"sampled capacity is 0 at snr={s!r}, below what the sampler resolves")
    pen_cfg = cfg.substream(1)
    taus = [0] + [tau for tau in range(n, T)]
    estimates = []
    for tau in taus:
        rho_eff = s / (1.0 + s * tau / n)
        c2 = _ctr_value(n, T - tau, rho_eff, pen_cfg, workers, rank1_x=tau + n / s)
        estimates.append(
            Estimate(
                mean=(1.0 - tau / T) * c1.mean - n * c2.mean / T,
                std_error=math.hypot(
                    (1.0 - tau / T) * c1.std_error, (n / T) * c2.std_error
                ),
                samples_used=c1.samples_used + c2.samples_used,
            )
        )
    idx, tie = _scan_candidates(estimates)
    continuous = n * (LOG2E / (c1.mean / n) - 1.0 / s)
    return MimoPilotSearch(
        tau_star=taus[idx],
        value=estimates[idx],
        tau_star_continuous=continuous,
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
