"""Scaled exponential integrals eps_k(x) = e^x * E_k(x).

Every closed-form bound in this package reduces to partial sums of the
scaled family eps_k(x).  The scaled form is the only one that survives
the low-SNR regime: arguments grow like 1/SNR, where E_k underflows and
e^x overflows long before the product does.  eps_k(x) itself stays
inside the elementary bracket 1/(x+k) < eps_k(x) < 1/(x+k-1).

Evaluation strategy per element:

* x < 1: power series for eps_1, then the forward recurrence
  k*eps_{k+1}(x) = 1 - x*eps_k(x), whose error amplification factor is
  x/k < 1 on every step.
* x >= 1: modified Lentz continued fraction evaluated directly at the
  requested order.  The forward recurrence is NOT started below
  k = ceil(x): each step multiplies the seed error by x/k, which is
  catastrophic for x >> k (at x = 50 the recurrence loses the value
  entirely by k = 25).

A partial sum over orders 1..n evaluates a single seed, eps_{k0}(x) at
k0 = min(n, ceil(x)) (k0 = 1 for x < 1), by the series or the continued
fraction.  Two recurrences run out from it, each in its stable
direction: downward, eps_k = (1 - k*eps_{k+1})/x for k < k0, where the
amplification is k/x <= 1; and forward, as above, for k > k0, where it
is x/k <= 1.  The summed relative error stays below 1e-10 out to 1e4
terms.
"""

from __future__ import annotations

import math

import numpy as np

from .params import _check_int

LOG2E = math.log2(math.e)
EULER_GAMMA = float(np.euler_gamma)

# Series term count: at the x -> 1 branch edge, term 26 is below
# 1e-27 while the result is O(0.2), so 25 fixed terms leave the
# truncation error far under one ulp.  A fixed count keeps single and
# batched evaluations bit-identical.
_SERIES_TERMS = 25
_CF_TOL = 5e-16
_CF_MAX_ITER = 400
_TINY = 1e-300


def _check_argument(x) -> float:
    try:
        x = float(x)
    except (TypeError, ValueError):
        raise ValueError(f"argument must be a real number, got {x!r}") from None
    if not math.isfinite(x) or x <= 0.0:
        raise ValueError(f"argument must be finite and > 0, got {x!r}")
    return x


def _eps1_lanes(x: np.ndarray) -> np.ndarray:
    """eps_1(x) over a float array of arguments x > 0.

    Lanes are evaluated independently and freeze individually, so a
    batched call returns bit-identical values to one-element calls.
    """
    out = np.empty(x.shape, dtype=float)

    lo = x < 1.0
    if lo.any():
        xs = x[lo]
        acc = -EULER_GAMMA - np.log(xs)
        term = xs.copy()
        for n in range(1, _SERIES_TERMS + 1):
            acc = acc + term
            term = term * (-xs) * n / (n + 1.0) ** 2
        out[lo] = np.exp(xs) * acc

    hi = ~lo
    if hi.any():
        b = x[hi] + 1.0
        c = np.full(b.shape, 1.0 / _TINY)
        d = 1.0 / b
        h = d.copy()
        active = np.ones(b.shape, dtype=bool)
        for i in range(1, _CF_MAX_ITER + 1):
            a = -float(i * i)
            b = np.where(active, b + 2.0, b)
            dn = 1.0 / (a * d + b)
            cn = b + a / c
            delta = cn * dn
            d = np.where(active, dn, d)
            c = np.where(active, cn, c)
            h = np.where(active, h * delta, h)
            active = active & (np.abs(delta - 1.0) >= _CF_TOL)
            if not active.any():
                break
        else:
            raise RuntimeError(
                f"continued fraction failed to converge within {_CF_MAX_ITER} "
                f"iterations ({int(active.sum())} elements remaining)"
            )
        out[hi] = h
    return out


def _eps_scalar_cf(k: int, x: float) -> float:
    # at k = 1 the same operation sequence as the x >= 1 branch of
    # _eps1_lanes, in plain floats: bit-identical results (the loop is
    # arithmetic only) without per-iteration array overhead
    b = x + k
    c = 1.0 / _TINY
    d = 1.0 / b
    h = d
    for i in range(1, _CF_MAX_ITER + 1):
        a = -i * (k - 1.0 + i)
        b = b + 2.0
        d = 1.0 / (a * d + b)
        c = b + a / c
        delta = c * d
        h = h * delta
        if abs(delta - 1.0) < _CF_TOL:
            return h
    raise RuntimeError(
        f"continued fraction failed to converge within {_CF_MAX_ITER} iterations"
    )


def eps1_array(x: np.ndarray) -> np.ndarray:
    """Vectorized eps_1 over an array of positive arguments."""
    x = np.asarray(x, dtype=float)
    if x.size and (not np.isfinite(x).all() or (x <= 0.0).any()):
        raise ValueError("arguments must be finite and > 0")
    return _eps1_lanes(x)


def expint_scaled(k: int, x: float) -> float:
    """Compute eps_k(x) = e^x * E_k(x) without forming either factor.

    Args:
        k: integral order, k >= 1.
        x: positive real argument; values up to ~1/SNR for vanishing SNR
           are routine, far beyond where e^x alone overflows.

    Returns:
        The scaled value eps_k(x); relative error <= 1e-12.
    """
    k = _check_int("k", k, 1)
    x = _check_argument(x)
    return _eps_scalar(k, x)


def expint_e1(x: float) -> float:
    """E_1(x) = integral_1^inf e^{-x t}/t dt for x > 0.

    Underflows to 0.0 for x beyond ~745 where the true value is
    smaller than the tiniest subnormal.
    """
    x = _check_argument(x)
    return math.exp(-x) * _eps_scalar(1, x)


def _eps_scalar(k: int, x: float) -> float:
    """eps_k(x) for validated arguments: the continued fraction for
    x >= 1; below, the eps_1 series lane and k - 1 forward recurrence
    steps."""
    if x >= 1.0:
        return _eps_scalar_cf(k, x)
    val = float(_eps1_lanes(np.array([x]))[0])
    for j in range(1, k):
        val = (1.0 - x * val) / j
    return val


def _seed_order(n: int, x: float) -> int:
    return min(n, math.ceil(x)) if x >= 1.0 else 1


def expint_scaled_sum(n: int, x: float) -> float:
    """Partial sum sum_{k=1}^{n} eps_k(x) in a single stable pass.

    One seed eps_{k0}(x), k0 = min(n, ceil(x)), feeds the downward
    recurrence for the orders below k0 (amplification k/x <= 1) and the
    forward recurrence for those above (amplification x/k <= 1).
    Relative error <= 1e-10 for n <= 1e4.
    """
    n = _check_int("n", n, 1)
    x = _check_argument(x)
    k0 = _seed_order(n, x)
    seed = _eps_scalar(k0, x)
    total = val = seed
    for k in range(k0 - 1, 0, -1):
        val = (1.0 - k * val) / x
        total += val
    val = seed
    for j in range(k0, n):
        val = (1.0 - x * val) / j
        total += val
    return total


def _scaled_sums(n: np.ndarray, x: np.ndarray) -> np.ndarray:
    """expint_scaled_sum over 1-D arrays of validated n and x.

    Each lane takes its seed from the same scalar call and runs the same
    two recurrences in the same order, masked to its own range of
    orders, so every lane is bit-equal to expint_scaled_sum(n, x).
    """
    n = np.asarray(n, dtype=np.int64)
    x = np.asarray(x, dtype=float)
    k0 = np.array([_seed_order(ni, xi) for ni, xi in zip(n.tolist(), x.tolist())])
    seed = np.array([_eps_scalar(ki, xi) for ki, xi in zip(k0.tolist(), x.tolist())])
    total = val = seed
    for k in range(int(k0.max()) - 1, 0, -1):
        live = k < k0
        val = np.where(live, (1.0 - k * val) / x, val)
        total = np.where(live, total + val, total)
    val = seed
    for j in range(int(k0.min()), int(n.max())):
        live = (k0 <= j) & (j < n)
        val = np.where(live, (1.0 - x * val) / j, val)
        total = np.where(live, total + val, total)
    return total
