"""Scaled exponential integrals eps_k(x) = e^x * E_k(x).

Every closed-form bound in this package reduces to partial sums of the
scaled family eps_k(x).  The scaled form is the only one that survives
the low-SNR regime: arguments grow like 1/SNR, where E_k underflows and
e^x overflows long before the product does.  eps_k(x) itself stays
inside the elementary bracket 1/(x+k) < eps_k(x) < 1/(x+k-1).

Evaluation strategy per element:

* x < 1: power series for eps_1, then the forward recurrence
  k*eps_{k+1}(x) = 1 - x*eps_k(x), whose error amplification factor is
  x/k < 1 on every step.  The series E_1(x) = -gamma - ln x +
  sum_n (-1)^(n+1) x^n/(n n!) (A&S 5.1.11) stops after the last term
  that can change the sum: a batch runs the count its largest lane
  needs (the table _SERIES_X), at most _SERIES_TERMS.  The dropped
  terms are exact no-ops.  Once term n + 1 is below 0.2*2^-56 in
  magnitude, the partial sum lies within it of E_1(x) >= E_1(1) > 0.2,
  and each later term is smaller still (the ratio of magnitudes is
  x(n+1)/(n+2)^2 < 1/4).  Floats above 1/8 lie at least 2^-55 apart,
  so adding any of these terms, under a quarter of half that gap,
  rounds back to the same partial sum.
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

The batched kernels (eps1_array, and the sums of a pilot search) touch
only live lanes.  A lane is one argument; it runs the IEEE operations of
a one-element call in the same order, so batched values are bit-equal
to scalar ones.  The vector continued fraction drops each lane as soon
as it converges, and a batch of at most _SCALAR_LANES such lanes runs
the scalar continued fraction lane by lane instead.  The batched sums
sort their lanes by recurrence step count, so the lanes still
recurring at any step are one prefix of the arrays and each step is a
few ufuncs on a slice, with no mask.  A batch of at most
_SCALAR_SUM_LANES = 32 sums runs lane by lane through
expint_scaled_sum's own path instead: a step of the vector recurrence
costs about as much for one lane as for hundreds, and near n = 1000
the scalar path wins up to about 38 lanes.
"""

from __future__ import annotations

import bisect
import functools
import math
import operator

import numpy as np

from .params import _check_int

LOG2E = math.log2(math.e)
EULER_GAMMA = float(np.euler_gamma)

# Series terms, at most: at the x -> 1 branch edge, term 26 is below
# 1e-27 while the result is O(0.2), so 25 terms leave the truncation
# error far under one ulp.  Fewer run where the rest are no-ops: below
# _SERIES_X[n - 1], term n + 1, x^(n+1)/((n+1)(n+1)!), is under
# 0.2*2^-56, a quarter of half an ulp of any partial sum there (module
# docstring), so n terms give the bits of 25; past the last threshold
# all 25 run.  A lane's result does not depend on the count its batch
# runs, so single and batched evaluations stay bit-identical.
_SERIES_TERMS = 25
_SERIES_X = tuple(
    (0.2 * 2.0**-56 * (n + 1) * math.factorial(n + 1)) ** (1.0 / (n + 1))
    for n in range(1, _SERIES_TERMS)
)
_CF_TOL = 5e-16
_CF_MAX_ITER = 400
_TINY = 1e-300
# Up to this many continued-fraction lanes, running each through the
# scalar CF beats the vector CF, whose ~12 ufunc calls per iteration
# cost about as much for a few lanes as for hundreds.  Median CPU time,
# vector -> scalar, on a 2-vCPU x86 host: x in [1, 3], 32 lanes
# 1.59 -> 0.82 ms, 64 lanes 1.67 -> 1.66 ms, 100 lanes 1.93 -> 2.85 ms,
# 300 lanes 2.21 -> 7.66 ms.  The crossover lies near 40 lanes for x in
# [1, 1.05] (~86 iterations each) and near 120 for x in [3, 50].
_SCALAR_LANES = 64
# Up to this many lanes, _scaled_sums runs each through expint_scaled_sum's
# own path (_scaled_orders + _sum_in_order) instead of the step-indexed
# recurrence, whose five ufunc calls per step cost about as much for a
# few lanes as for hundreds.  Median CPU time, vector -> scalar, on a
# 2-vCPU x86 host, lanes with n near 1000 at x near 10: 8 lanes 6.9 ->
# 1.6 ms, 32 lanes 7.2 -> 5.9 ms, 40 lanes 7.3 -> 7.8 ms, 64 lanes 8.0 ->
# 11.8 ms (about 0.19 ms per scalar lane); the crossover lies near 38
# lanes, at x near 0.1 as well.
_SCALAR_SUM_LANES = 32
_BAD_ARGUMENTS = "arguments must be finite and > 0"


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

    Each lane runs the operation sequence of a one-element call, so a
    batched call returns bit-identical values: below x = 1 the series,
    up to the term count the largest lane needs (the terms past a
    lane's own count add exactly nothing), at x >= 1 the continued
    fraction.  Up to
    _SCALAR_LANES lanes at x >= 1 run the scalar CF one by one; more run
    the vector CF, where each iteration costs only the lanes still
    converging.
    """
    out = np.empty(x.shape, dtype=float)

    lo = x < 1.0
    if lo.any():
        xs = x[lo]
        neg = -xs
        acc = -EULER_GAMMA - np.log(xs)
        term = xs.copy()
        acc += term
        # in place: term = term * (-x) * n / (n + 1)^2, then acc += term
        for n in range(1, _series_steps(float(xs.max())) + 1):
            term *= neg
            term *= n
            term /= (n + 1.0) ** 2
            acc += term
        out[lo] = np.exp(xs) * acc

    hi = ~lo
    if hi.any():
        xs = x[hi]
        if xs.size > _SCALAR_LANES:
            out[hi] = _eps1_cf_lanes(xs)
        else:
            out[hi] = [_eps_scalar_cf(1, xi) for xi in xs.tolist()]
    return out


def _series_steps(x: float) -> int:
    """The steps after the first term that the eps_1 series takes for
    lanes up to x < 1: one per term that can still change the sum
    (_SERIES_X), so term n + 1 comes from step n."""
    return bisect.bisect_right(_SERIES_X, x)


def _eps1_cf_lanes(x: np.ndarray) -> np.ndarray:
    """The continued fraction for eps_1 over a 1-D array of x >= 1.

    The operations of _eps_scalar_cf at k = 1, lane by lane, in place.
    A lane is done once abs(delta - 1) >= _CF_TOL fails (a NaN delta
    fails it too): its h goes to the result and its entries leave the
    arrays.
    """
    out = np.empty(x.shape, dtype=float)
    lane = np.arange(x.size)
    b = x + 1.0
    c = np.full(b.shape, 1.0 / _TINY)
    d = 1.0 / b
    h = d.copy()
    delta = np.empty(b.shape)
    for i in range(1, _CF_MAX_ITER + 1):
        a = -float(i * i)
        # in place: d = 1/(a*d + b), c = b + a/c, delta = c*d, h *= delta
        b += 2.0
        np.multiply(d, a, out=d)
        d += b
        np.divide(1.0, d, out=d)
        np.divide(a, c, out=c)
        c += b
        np.multiply(c, d, out=delta)
        h *= delta
        delta -= 1.0
        going = np.abs(delta, out=delta) >= _CF_TOL
        if not going.all():
            out[lane[~going]] = h[~going]
            if not going.any():
                return out
            lane, b, c, d, h = lane[going], b[going], c[going], d[going], h[going]
            delta = delta[: b.size]
    raise RuntimeError(
        f"continued fraction failed to converge within {_CF_MAX_ITER} "
        f"iterations ({lane.size} elements remaining)"
    )


def _eps_scalar_cf(k: int, x: float) -> float:
    # at k = 1 the same operation sequence as _eps1_cf_lanes, in plain
    # floats: bit-identical results (the loop is arithmetic only)
    # without per-iteration array overhead
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
        raise ValueError(_BAD_ARGUMENTS)
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

    Relative error <= 1e-10 for n <= 1e4.
    """
    n = _check_int("n", n, 1)
    x = _check_argument(x)
    return _sum_in_order(*_scaled_orders(n, x))


def _sum_in_order(k0: int, terms: list[float]) -> float:
    """Sum terms[k - 1] over the orders k = 1..len(terms) as
    expint_scaled_sum does: order k0, the seed, first, then k0 - 1 down
    to 1, then k0 + 1 up to the last."""
    total = functools.reduce(operator.add, reversed(terms[: k0 - 1]), terms[k0 - 1])
    return functools.reduce(operator.add, terms[k0:], total)


def _scaled_orders(n: int, x: float) -> tuple[int, list[float]]:
    """(k0, [eps_1(x), ..., eps_n(x)]) for validated n, x.

    One seed eps_{k0}(x), k0 = min(n, ceil(x)) (1 for x < 1), feeds the
    downward recurrence for the orders below k0 (amplification k/x <= 1)
    and the forward recurrence for those above (amplification x/k <= 1).
    """
    k0 = _seed_order(n, x)
    return k0, _orders_from_seed(n, k0, x, _eps_scalar(k0, x))


def _orders_from_seed(n: int, k0: int, x, seed) -> list:
    """[eps_1(x), ..., eps_n(x)] from seed = eps_{k0}(x) through the two
    recurrences, in floats or, with a Decimal x and seed, in decimal."""
    eps = [seed] * n
    val = seed
    for k in range(k0 - 1, 0, -1):
        val = (1 - k * val) / x
        eps[k - 1] = val
    val = seed
    for j in range(k0, n):
        val = (1 - x * val) / j
        eps[j] = val
    return eps


def _decimal_orders(n: int, x: float) -> tuple[int, list]:
    """_scaled_orders(n, x) in decimal at the context's precision.

    At x >= 1 the seed comes from the continued fraction.  Decimal has
    no Euler gamma, so below x = 1 it is eps_1(x) = e^x (-gamma - ln x
    + Ein(x)), with -gamma = E_1(1) - Ein(1) and E_1(1) from the
    continued fraction."""
    import decimal  # first use only: off the import path

    X = decimal.Decimal(x)
    k0 = _seed_order(n, x)
    if x >= 1.0:
        seed = _decimal_cf(k0, X)
    else:
        seed = X.exp() * (_decimal_neg_gamma(decimal.getcontext().prec) - X.ln() + _decimal_ein(X))
    return k0, _orders_from_seed(n, k0, X, seed)


@functools.lru_cache(maxsize=None)
def _decimal_neg_gamma(prec: int):
    import decimal

    with decimal.localcontext() as ctx:
        ctx.prec = prec
        one = decimal.Decimal(1)
        return _decimal_cf(1, one) / one.exp() - _decimal_ein(one)


def _decimal_ein(x):
    """Ein(x) = sum_{j>=1} (-1)^(j+1) x^j/(j j!) for a Decimal x in (0, 1],
    until a term no longer moves the total."""
    total, term, j = x, x, 1  # term = (-1)^(j+1) x^j/j!
    while True:
        j += 1
        term = -term * x / j
        if total + term / j == total:
            return total
        total += term / j


def _decimal_cf(k: int, x):
    """eps_k(x) for a Decimal x >= 1 by the continued fraction of
    _eps_scalar_cf, until a step moves the value by at most 100 units in
    the last of the context's digits."""
    import decimal

    prec = decimal.getcontext().prec
    tol = decimal.Decimal(1).scaleb(2 - prec)
    b = x + k
    c = decimal.Decimal("Infinity")
    d = h = 1 / b
    for i in range(1, _CF_MAX_ITER * prec):
        a = -i * (k - 1 + i)
        b += 2
        d = 1 / (a * d + b)
        c = b + a / c
        delta = c * d
        h *= delta
        if abs(delta - 1) <= tol:
            return h
    raise RuntimeError("continued fraction failed to converge")


def _scaled_sums(n: np.ndarray, x: np.ndarray) -> np.ndarray:
    """expint_scaled_sum over 1-D arrays of validated n and x.

    Each lane takes its seed from the same scalar call (the x < 1 seeds
    from one _eps1_lanes call, whose lanes are bit-equal to one-element
    calls) and runs the same two recurrences in the same order, with its
    order held as an exact float, so every lane is bit-equal to
    expint_scaled_sum(n, x).  The recurrences are indexed by step, not by
    order: with the lanes sorted by step count, those still recurring at
    step t are the prefix [:live[t]], and a step runs five ufuncs on that
    slice.  Up to
    _SCALAR_SUM_LANES lanes take expint_scaled_sum's path one by one.
    """
    n = np.asarray(n, dtype=np.int64)
    x = np.asarray(x, dtype=float)
    pairs = list(zip(n.tolist(), x.tolist()))
    if len(pairs) <= _SCALAR_SUM_LANES:
        return np.array([_sum_in_order(*_scaled_orders(ni, xi)) for ni, xi in pairs])
    k0 = np.array([_seed_order(ni, xi) for ni, xi in pairs])
    seed = np.empty(len(pairs))
    lo = x < 1.0  # seed order 1: the series lanes of one _eps1_lanes call
    seed[lo] = _eps1_lanes(x[lo])
    seed[~lo] = [_eps_scalar_cf(ki, xi) for ki, xi in zip(k0[~lo].tolist(), x[~lo].tolist())]
    total = seed.copy()

    # downward, orders k0-1 ... 1: eps_k = (1 - k*eps_{k+1})/x
    lanes, live = _by_step_count(k0 - 1)
    xs, val, tot = x[lanes], seed[lanes], total[lanes]
    k = (k0[lanes] - 1).astype(float)
    for p in live:
        v = val[:p]
        np.multiply(k[:p], v, out=v)
        np.subtract(1.0, v, out=v)
        np.divide(v, xs[:p], out=v)
        tot[:p] += v
        k[:p] -= 1.0
    total[lanes] = tot

    # forward, orders k0+1 ... n: eps_{j+1} = (1 - x*eps_j)/j
    lanes, live = _by_step_count(n - k0)
    xs, val, tot = x[lanes], seed[lanes], total[lanes]
    j = k0[lanes].astype(float)
    for p in live:
        v = val[:p]
        np.multiply(xs[:p], v, out=v)
        np.subtract(1.0, v, out=v)
        np.divide(v, j[:p], out=v)
        tot[:p] += v
        j[:p] += 1.0
    total[lanes] = tot
    return total


def _by_step_count(steps: np.ndarray) -> tuple[np.ndarray, list[int]]:
    """(lanes, live): the lanes sorted by descending step count, and for
    each step t = 0, 1, ... the number live[t] of lanes with more than t
    steps, which are the first live[t] of the sorted lanes."""
    lanes = np.argsort(-steps, kind="stable")
    ranked = -steps[lanes]
    live = np.searchsorted(ranked, -np.arange(1, int(steps.max(initial=0)) + 1), side="right")
    return lanes, live.tolist()
