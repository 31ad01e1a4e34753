"""MIMO generalizations of the joint and separate bounds.

The capacity functional C_{t,r}(rho) = E[log2 det(I + (rho/t) Z Z†)]
is exact at every size; of this module only the pilot-Gram check
samples.  With m = min(t, r), d = |t - r| and x = t/rho, Telatar's
Laguerre form of the eigenvalue density, summed by parts, makes it one
weighted sum of the scalar channel's eps_k(x):

    C_{t,r}(rho) = log2(e) * sum_{k=1}^{t+r-1} W_k eps_k(x),

    W_k = sum_{j >= max(d, k-1)} w_j,
    sum_j (w_j/j!) lam^j = lam^d sum_{k<m} k!/(k+d)! [L_k^(d)(lam)]^2.

The W_k are exact rationals, built once per (m, d) in integers (4 ms
at m = 32).  W_k = m for k <= d + 1, so at m = 1 every W_k is 1 and,
added in expint_scaled_sum's order, the sum is that function's value
bit for bit.  For m >= 2 some W_k are negative, and the float sum
cancels more as m and d grow.  A guard measures that on every call,
kappa = sum_k |W_k eps_k| / sum_k W_k eps_k, and keeps the float sum
when kappa <= 1e5 (relative error below 2.1e-15 * kappa against
60-digit mpmath, t, r in 2..20).  Over -400...300 dB that holds at
every SNR for max(t, r) <= 20 and m <= 6, max(t, r) <= 13 and m = 7,
max(t, r) <= 11 and m = 8, and 9 x 9; a call takes 0.01-0.13 ms.

Elsewhere (12 x 12 and up, 10 x 10 below about 20 dB) the same sum
runs in stdlib decimal, with the exact weights, the same seed order and
the same two recurrences, at 20 + ceil(log10 sum_k |W_k|) digits, and
is rounded once to float; sum_k |W_k| bounds the digits the
cancellation takes (log10 kappa <= 25.4 at 32 x 32, log10 max |W_k|
27.4).  Against 40-digit mpmath quadrature at 12 x 12 to 32 x 32 and
8 x 32 the relative error was below 9e-17.  A call takes 0.1-0.7 ms up
to 24 x 24 and up to 1.2 ms at 32 x 32.

The bounds call the scalar module's expressions with the antenna
counts, which put the per-antenna counterparts in place of T, tau and
C(.); at n_t = n_r = 1 they are the scalar bounds, bit for bit.  Pilot
searches reuse one capacity value, tau* is the first argmax, and the
joint search skips the tau that cannot win, as the scalar one does.  The
bounds and searches keep their cfg and workers parameters and Estimate
results (std_error 0, samples_used 0, tie_within_margin False) so that
callers written for sampled results, such as bench/workloads.py, run
unchanged: cfg is ignored, workers is checked and ignored.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from typing import NamedTuple, Sequence

import numpy as np

from . import montecarlo as mc
# expint_scaled_sum is unused here; bench/spans.py traces the kernel through mimo's name
from .expint import (
    LOG2E, _check_argument, _decimal_orders, _scaled_orders, _sum_in_order, expint_scaled_sum,
)
from .montecarlo import Estimate, McConfig
from .params import MimoParams, PowerOffset, _check_int, _check_snr_blocklength, linear_snr
from .siso import (
    _J1_SERIES_MAX,
    _effective_snr,
    _first_max,
    _j1,
    _j1_argument,
    _j1_series,
    _j2,
    _tau_continuous,
    advantage_units,
)

_TIE_MARGIN_SE = 4.0
# Largest cancellation ratio kappa of the float Laguerre sum that is
# trusted, about 2e-10 at 2.1e-15 per unit (module docstring).
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
def _laguerre_weights(m: int, d: int) -> tuple[tuple[int, ...], int, tuple[float, ...], int]:
    """(N, D, W, digits) for the Laguerre sum in the module docstring:
    W_k = N_k/D, k = 1..d+2m-1, over the common denominator
    D = (m-1+d)! ((m-1)!)^2, in which every term is an integer; W holds
    each W_k rounded once to float, and digits is the decimal precision
    20 + ceil(log10 sum_k |W_k|)."""
    # i! for i < m and (d+i)! for i < 2m-1, each list one running product
    f = list(itertools.accumulate(range(1, m), operator.mul, initial=1))
    fd = list(itertools.accumulate(range(d + 1, d + 2 * m - 1), operator.mul, initial=math.factorial(d)))
    top = f[m - 1]
    c = [0] * (2 * m - 1)  # D times the coefficients of lam^i
    for k in range(m):
        # (m-1)! L_k^(d)(lam) = sum_i (-1)^i C(k+d, k-i) (m-1)!/i! lam^i
        lag = [(-1) ** i * math.comb(k + d, k - i) * (top // f[i]) for i in range(k + 1)]
        # the square of the polynomial: the squares, plus twice each
        # a < b cross term
        sq = [0] * (2 * k + 1)
        for a, la in enumerate(lag):
            sq[2 * a] += la * la
            twice = 2 * la
            for b, lb in enumerate(lag[a + 1 :], a + 1):
                sq[a + b] += twice * lb
        scale = fd[m - 1] // fd[k] * f[k]
        for i, v in enumerate(sq):
            c[i] += scale * v
    # D w_j at index j - d, and its tail sums
    tails = list(itertools.accumulate(reversed(list(map(operator.mul, c, fd)))))[::-1]
    num = (tails[0],) * (d + 1) + tuple(tails[1:])
    den = fd[m - 1] * top * top
    # the d + 1 head terms are one integer (W_k = m): divide and sum it once
    digits = 20 + math.ceil(math.log10(((d + 1) * abs(tails[0]) + sum(map(abs, tails[1:]))) / den))
    return num, den, (tails[0] / den,) * (d + 1) + tuple(n / den for n in tails[1:]), digits


def _ctr_value(t: int, r: int, x: float) -> float:
    """C_{t,r} at the sum argument x = t/rho (the penalty term passes
    tau + n_t/snr, with fewer roundings): the float Laguerre sum where
    the cancellation guard admits it, else the decimal one."""
    return _ctr_from_orders(min(t, r), abs(t - r), x, _scaled_orders(t + r - 1, _check_argument(x)))


def _ctr_from_orders(m: int, d: int, x: float, orders) -> float:
    """_ctr_value from orders = _scaled_orders(2m + d - 1, x), or from
    a longer list with the same seed order, whose first 2m + d - 1
    entries are the same floats."""
    _, _, weights, digits = _laguerre_weights(m, d)
    total = _guarded_sum(weights, orders)
    return _ctr_decimal(m, d, x, digits) if total is None else total


def _guarded_sum(weights: tuple[float, ...], orders) -> float | None:
    """log2(e) * sum_k weights[k-1] eps_k(x) over k = 1..len(weights),
    from orders = (k0, [eps_1(x), ...]) as _scaled_orders gives them,
    added in expint_scaled_sum's order; None where the sum is not > 0
    or its cancellation ratio kappa exceeds _KAPPA_MAX (module
    docstring)."""
    k0, eps = orders
    terms = [w * e for w, e in zip(weights, eps)]
    total = _sum_in_order(k0, terms)
    if total > 0.0 and sum(map(abs, terms)) <= _KAPPA_MAX * total:
        return LOG2E * total
    return None


def _ctr_decimal(m: int, d: int, x: float, digits: int) -> float:
    """The Laguerre sum at x in decimal at digits significant digits,
    with the exact weights, rounded once to float."""
    num, den, _, _ = _laguerre_weights(m, d)
    return _decimal_sum(num, den, x, digits)


def _decimal_sum(num: tuple[int, ...], den: int, x: float, digits: int) -> float:
    """log2(e) * sum_k (num[k-1]/den) eps_k(x) over k = 1..len(num), in
    decimal at digits significant digits, rounded once to float."""
    import decimal  # first use only: off the import path

    with decimal.localcontext() as ctx:
        ctx.prec = digits
        _, eps = _decimal_orders(len(num), x)
        return float(sum(map(operator.mul, num, eps)) / den / decimal.Decimal(2).ln())


def capacity_ctr(t: int, r: int, rho, cfg: McConfig | None = None, workers: int = 1) -> Estimate:
    """Ergodic capacity functional C_{t,r}(rho) in bits/s/Hz, exact at
    every size, as Estimate(value, 0.0, 0): the float Laguerre sum where
    its guard admits it, else the decimal one (module docstring).  cfg
    is ignored, workers checked and ignored; both stay for callers that
    pass them."""
    t = _check_int("t", t, 1)
    r = _check_int("r", r, 1)
    _check_int("workers", workers, 1)
    return Estimate(_ctr_value(t, r, t / linear_snr(rho)), 0.0, 0)


def mimo_joint_j1(p: MimoParams, cfg: McConfig | None = None, workers: int = 1) -> Estimate:
    """Joint-processing lower bound

        (1 - tau/T) * C_{n_t,n_r}(snr) - (n_r/T) * C_{n_t,T-tau}(snr_p),

    with snr_p = snr/(1 + snr*tau/n_t); exact, cfg and workers as in
    capacity_ctr.
    """
    _check_int("workers", workers, 1)
    s = p.snr.linear
    c1 = _ctr_value(p.n_t, p.n_r, p.n_t / s)
    return Estimate(_j1_candidate(p.n_t, p.n_r, p.T, p.tau, s, c1), 0.0, 0)


def _j1_candidate(n_t: int, n_r: int, T: int, tau: int, s: float, c1: float) -> float:
    """mimo_joint_j1 at one tau given its capacity term c1; one antenna
    each side at snr*T <= _J1_SERIES_MAX takes joint_bound_j1's series."""
    if n_t == n_r == 1 and s * T <= _J1_SERIES_MAX:
        return _j1_series(tau, T, s)
    return _j1(tau, T, c1, _ctr_value(n_t, T - tau, _j1_argument(tau, s, n_t)), n_r)


def mimo_joint_j2(p: MimoParams, cfg: McConfig | None = None, workers: int = 1) -> Estimate:
    """Jensen-relaxed joint bound

        (1 - tau/T) * C_{n_t,n_r}(snr)
            - (n_t*n_r/T) * log2((1 + snr*T/n_t)/(1 + snr*tau/n_t));

    exact, cfg and workers as in capacity_ctr.
    """
    _check_int("workers", workers, 1)
    c1 = _ctr_value(p.n_t, p.n_r, p.n_t / p.snr.linear)
    return Estimate(_j2(p.tau, p.T, p.snr.linear, c1, p.n_t, p.n_r), 0.0, 0)


def mimo_separate(
    n_t: int, n_r: int, T: int, snr, cfg: McConfig | None = None, workers: int = 1
) -> MimoSeparateResult:
    """Best separate-processing efficiency with the scalar recipe applied
    per antenna: tau_bar = tau/n_t pilot uses, effective SNR from the
    per-antenna MMSE, capacity through C_{n_t,n_r}.

    Searches every integer tau in [n_t, T-1]; every candidate is exact,
    so tau* is the first argmax and tie_within_margin is False.  cfg and
    workers as in capacity_ctr.
    """
    n_t = _check_int("n_t", n_t, 1)
    n_r = _check_int("n_r", n_r, 1)
    # at least one data symbol after the n_t pilots
    T = _check_int("T", T, n_t + 1)
    _check_int("workers", workers, 1)
    s = linear_snr(snr)
    _check_snr_blocklength(s, T)
    taus = list(range(n_t, T))
    values = [
        (1.0 - tau / T) * _ctr_value(n_t, n_r, n_t / eff)
        for tau, eff in zip(taus, _effective_snr(s, taus, n_t).tolist())
    ]
    idx = int(np.argmax(values))
    return MimoSeparateResult(Estimate(values[idx], 0.0, 0), taus[idx], False)


def mimo_optimize_pilots(
    n: int, T: int, snr, cfg: McConfig | None = None, workers: int = 1
) -> MimoPilotSearch:
    """Pilot search of the joint bound for n_t = n_r = n over tau in
    {0} U [n, T-1], exact as an exhaustive one: siso._first_max with
    first = n, since j1 is (1 - tau/T)*c1 less a penalty that is > 0
    (_ctr_value's float sum needs a total > 0, and its decimal one sums
    a positive quantity).

    One capacity value c1 = C_{n,n}(snr) is shared by every candidate;
    every candidate is exact, so tau* is the first argmax and
    tie_within_margin is False.  The continuous relaxation
    n * (log2(e)/(C_{n,n}/n) - 1/snr) is reported for reference, in a
    form that does not cancel at low SNR (_square_capacity).  cfg
    and workers as in capacity_ctr.
    """
    n = _check_int("n", n, 1)
    T = _check_int("T", T, 2)
    _check_int("workers", workers, 1)
    s = linear_snr(snr)
    _check_snr_blocklength(s, T)
    c1, continuous = _square_capacity(n, s)
    best, value = _first_max(lambda taus: [_j1_candidate(n, n, T, t, s, c1) for t in taus], T, c1, n)
    return MimoPilotSearch(best, Estimate(value, 0.0, 0), continuous, False)


def _square_capacity(n: int, s: float) -> tuple[float, float]:
    """(c1, tau_c): c1 = C_{n,n}(snr), _ctr_value(n, n, n/snr) bit for
    bit, and the continuous relaxation n * (log2(e)/(c1/n) - 1/snr) of
    the n x n pilot search, without its cancellation.

    With x = n/snr and S = c1/log2(e) = sum_k W_k eps_k(x), tau_c is
    (n^2 - x S)/S.  sum_k W_k = n^2 exactly (as x grows, eps_k(x) ~ 1/x
    and C_{t,r} ~ log2(e) (rho/t) E tr Z Z† = log2(e) r rho, so
    sum_k W_k = t r), and x eps_k = 1 - k eps_{k+1}, so
    n^2 - x S = sum_k k W_k eps_{k+1}(x), with nothing subtracted.
    That numerator cancels as the Laguerre sum does (sum_k |k W_k| /
    sum_k k W_k is 1 / 2.8 / 11.5 / 323 at n = 2 / 3 / 4 / 6), so it
    takes the same guard and decimal fallback, with the exact weights
    k N_k/D.  Its 2n orders share c1's seed where their seed order
    min(2n, ceil x) lies below 2n, x <= 2n - 1: c1's 2n - 1 orders are
    then their first 2n - 1.  Above, the numerator takes one more seed.
    n = 1 keeps siso's relaxation and its bits."""
    x = _check_argument(n / s)
    if n == 1:
        c1 = _ctr_value(1, 1, x)
        return c1, _tau_continuous(c1, s)
    orders = _scaled_orders(2 * n, x)
    c1 = _ctr_from_orders(n, 0, x, orders if orders[0] < 2 * n else _scaled_orders(2 * n - 1, x))
    num, den, weights, digits = _continuous_weights(n)
    top = _guarded_sum(weights, orders)
    if top is None:
        top = _decimal_sum(num, den, x, digits)
    return c1, top / c1


@functools.lru_cache(maxsize=None)
def _continuous_weights(n: int) -> tuple[tuple[int, ...], int, tuple[float, ...], int]:
    """(N', D, W', digits) as _laguerre_weights gives them, for the
    numerator of _square_capacity's relaxation: N'_1 = 0 and
    N'_{k+1} = k N_k on the orders 2..2n, over the same D."""
    num, den, _, _ = _laguerre_weights(n, 0)
    top = (0, *(k * v for k, v in enumerate(num, 1)))
    digits = 20 + math.ceil(math.log10(sum(map(abs, top)) / den))
    return top, den, tuple(v / den for v in top), digits


def mimo_power_advantage_asymptotic(n: int, T: int) -> PowerOffset:
    """High-SNR joint-over-separate advantage at effective blocklength T/n."""
    n = _check_int("n", n, 1)
    T = _check_int("T", T, n + 1)
    return PowerOffset(advantage_units(T / n))


def pilot_gram_optimality_check(
    p: MimoParams, perturbations: Sequence[Sequence[float]], cfg: McConfig
) -> GramOptimalityReport:
    """Check that the uniform pilot Gram diag(tau, ..., tau) minimizes the
    estimation penalty against the supplied diagonal perturbations.

    Every evaluation uses the same cfg, hence the same draws: X is
    drawn once per block and serves the uniform diagonal and every
    perturbation (each estimate equals its own sample_delta_mimo call
    with cfg).  The uniform diagonal re-submitted as a perturbation
    gives an excess of exactly zero, and genuine perturbations are
    compared with highly correlated noise.  A perturbation passes when
    its penalty is no more than 4 combined standard errors below the
    uniform one.
    """
    uniform = (float(p.tau),) * p.n_t
    diagonals = [tuple(float(v) for v in diag) for diag in perturbations]
    base, *estimates = mc._sample_delta_mimo_rows(p, [uniform] + diagonals, cfg)
    rows = []
    all_ok = True
    for diag_t, est in zip(diagonals, estimates):
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
