"""Seeded Monte Carlo estimators for every expectation in the toolkit.

These samplers are the independent oracle behind validate and the
pilot-Gram check.  None of them evaluates eps_k: the joint-bound
penalty draws its sum of T-tau unit exponentials as one Gamma(T-tau, 1)
variate per sample (or adds to the sum of a larger pilot count), and
the scalar capacity one standard exponential per sample.

Reproducibility contract: an estimate is a pure function of
(seed, stream_id, samples).  Draws are generated in fixed blocks of
16384 samples, each block from its own SFC64 generator (BIT_GENERATOR)
keyed by SeedSequence([seed, stream_id, block_index]), and per-block
partial sums are reduced in block order.  Threads only change which
thread computes a block, never the draws or the reduction order, so
results are bit-identical however many threads run.

The samplers choose their own threads.  Only sample_ctr (Gram side
min(t, r)), sample_delta_mimo and the Gram check (side n_t) hand blocks
to a pool, one thread per block and per CPU, and only at a side of at
least _POOL_MIN_SIDE with two blocks or more: there a block is batched
Cholesky factorization that a second thread runs 35-55% faster.  Below
that side the log-det has a closed form.  Every other estimate, all of
validate's among them, runs in the calling thread.

Estimates that can share draws share them (common random numbers): one
block's draw may return k rows, one per estimate, each reduced exactly as
a lone estimate is, so each row is still a pure function of McConfig.
The rows forms of the capacity, C_{t,r} and Gram-penalty samplers draw
what their one-row calls draw, so each row equals the one-row call at its
SNR or diagonal bit for bit.  A penalty group of several pilot counts of
one T draws Gamma(T - tau_max) as the one-row call at tau_max does, and
its tau_max rows equal those calls bit for bit.  Each smaller pilot count
adds one fresh standard exponential per pilot it drops, in place: a
Gamma(m) sum plus an independent unit exponential is a Gamma(m + 1) sum,
so the other rows have the law of their one-row calls but not their bits.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, replace
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .params import MimoParams, _check_int, linear_snr

_BLOCK = 16384
_SQRT_HALF = math.sqrt(0.5)
_MASK64 = (1 << 64) - 1
# The smallest Gram side whose blocks go to a thread pool.  sample_ctr
# n x n at 10 dB, 10^5 samples (7 blocks), serial -> two threads on a
# 2-vCPU x86 host shared with other work, median ms of 12 alternating
# pairs (2x2: the medians of 11 such runs, pool faster in 8-12 of 12):
#
#   side   wall            CPU            pool faster (wall)
#   2x2     33.8 ->  22.3   33.9 ->  33.7  8-12 of 12
#   3x3    108.4 ->  71.8  107.5 -> 119.8  11 of 12
#   4x4    174.7 -> 109.7  173.7 -> 193.0  12 of 12
#   8x8    805.9 -> 381.0  805.8 -> 694.1  12 of 12
#
# Below side 3 the log-det is closed form (_log2_det).  A 2x2 block is
# then its draws and its Gram product, and a second thread cuts its wall
# time when a second CPU is free, at about the same CPU time; moving the
# pool down to side 2 is left open.
_POOL_MIN_SIDE = 3

# The default sample count puts standard errors near 1e-3 bits/s/Hz.
DEFAULT_SCALAR_SAMPLES = 1_000_000

# The numpy bit generator under every block's draws: the seed identifies
# a run only together with it, so validate's JSON meta names it.  Looked
# up by name at the first draw, since numpy imports numpy.random lazily.
BIT_GENERATOR = "SFC64"


def derive_stream(stream_id: int, index: int) -> int:
    """Mix a parent stream id and a sub-operation index (splitmix64)."""
    z = (stream_id + (index + 1) * 0x9E3779B97F4A7C15) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return (z ^ (z >> 31)) & _MASK64


@dataclass(frozen=True)
class McConfig:
    """Sample count plus the (seed, stream_id) pair keying the draws."""

    samples: int = DEFAULT_SCALAR_SAMPLES
    seed: int = 0
    stream_id: int = 0

    def __post_init__(self):
        object.__setattr__(self, "samples", _check_int("samples", self.samples, 100))
        for name in ("seed", "stream_id"):
            v = _check_int(name, getattr(self, name), 0)
            if v > _MASK64:
                raise ValueError(f"{name} must fit in 64 unsigned bits, got {v}")
            object.__setattr__(self, name, v)

    def substream(self, index: int) -> "McConfig":
        """Derive an independent child configuration for a sub-operation."""
        return replace(self, stream_id=derive_stream(self.stream_id, index))


class Estimate(NamedTuple):
    """Sample mean with its standard error.

    The MIMO bounds, which are exact, report std_error 0.0 and
    samples_used 0: no draws were consumed.
    """

    mean: float
    std_error: float
    samples_used: int


def _block_rng(cfg: McConfig, block_index: int) -> np.random.Generator:
    seq = np.random.SeedSequence([cfg.seed, cfg.stream_id, block_index])
    return np.random.Generator(getattr(np.random, BIT_GENERATOR)(seq))


def _mean_estimate(
    cfg: McConfig,
    draw: Callable[[np.random.Generator, int], np.ndarray],
    side: int = 1,
) -> list[Estimate]:
    """Reduce per-block partial sums of draw(rng, count) in block order.

    draw returns k rows of count values, shape (k, count), or one row of
    shape (count,); each row gives one Estimate.  side is the side of
    draw's Gram matrices, 1 for the scalar samplers (module docstring).
    """
    n = cfg.samples
    n_blocks = (n + _BLOCK - 1) // _BLOCK
    threads = min(n_blocks, os.cpu_count() or 1) if side >= _POOL_MIN_SIDE else 1

    def one_block(b: int) -> list[tuple[float, float]]:
        count = min(_BLOCK, n - b * _BLOCK)
        rows = np.asarray(draw(_block_rng(cfg, b), count), dtype=float).reshape(-1, count)
        sums = rows.sum(axis=1)
        return list(zip(sums.tolist(), np.square(rows, out=rows).sum(axis=1).tolist()))

    if threads == 1:
        parts = [one_block(b) for b in range(n_blocks)]
    else:
        from concurrent.futures import ThreadPoolExecutor  # first use only: off the import path

        with ThreadPoolExecutor(threads) as ex:
            parts = list(ex.map(one_block, range(n_blocks)))

    estimates = []
    for row_parts in zip(*parts):  # one row's partial sums, in block order
        total = 0.0
        total_sq = 0.0
        for s, q in row_parts:
            total += s
            total_sq += q
        mean = total / n
        var = max(0.0, (total_sq - n * mean * mean) / (n - 1))
        estimates.append(Estimate(mean=mean, std_error=math.sqrt(var / n), samples_used=n))
    return estimates


def _complex_gaussian(rng: np.random.Generator, shape: tuple) -> np.ndarray:
    """IID circular complex Gaussians of unit variance, from one real draw."""
    a = rng.standard_normal(shape + (2,))
    a *= _SQRT_HALF
    return a.view(np.complex128)[..., 0]


def _not_positive_definite(side: int, label: str) -> RuntimeError:
    return RuntimeError(
        f"log-det failed on a {side}x{side} Gram batch ({label}); "
        "input should be positive definite"
    )


def _log2_det(g: np.ndarray, label: str) -> np.ndarray:
    """log2 det(I + g) over a batch of Hermitian g with I + g positive definite.

    Sides 1 and 2 take the determinant in closed form, 1 + g00 and
    (1 + g00)(1 + g11) - |g01|^2; larger sides factor I + g by Cholesky.
    A non-positive or NaN determinant or pivot raises RuntimeError.
    """
    side = g.shape[-1]
    if side > 2:
        try:
            ell = np.linalg.cholesky(np.eye(side) + g)
        except np.linalg.LinAlgError as exc:
            raise _not_positive_definite(side, label) from exc
        pivots = np.einsum("nii->ni", ell).real
        if not (pivots > 0.0).all():  # a NaN batch factors without an error
            raise _not_positive_definite(side, label)
        return 2.0 * np.log2(pivots).sum(axis=1)
    det = 1.0 + g[:, 0, 0].real
    if side == 2:
        b = g[:, 0, 1]
        det *= 1.0 + g[:, 1, 1].real
        det -= b.real * b.real + b.imag * b.imag
    if not (det > 0.0).all():  # NaN fails the test too
        raise _not_positive_definite(side, label)
    return np.log2(det, out=det)


def _log2_one_plus(x: np.ndarray, scales: Sequence[float], out: np.ndarray) -> np.ndarray:
    """Fill row i of out with log2(1 + scales[i]*x), in place: the same
    roundings as np.log2(1.0 + scales[i] * x), no temporaries."""
    for row, scale in zip(out, scales):
        np.multiply(x, scale, out=row)
        row += 1.0
        np.log2(row, out=row)
    return out


def sample_capacity_siso(snr, cfg: McConfig) -> Estimate:
    """Monte Carlo E[log2(1 + snr*|H|^2)] with |H|^2 unit-mean exponential.

    Args:
        snr: linear SNR (SnrValue or positive float).
        cfg: sampling configuration.
    """
    return _sample_capacity_rows((snr,), cfg)[0]


def _sample_capacity_rows(snrs: Sequence, cfg: McConfig) -> list[Estimate]:
    """sample_capacity_siso at each of snrs from one exponential draw per
    block: row i is bit-equal to sample_capacity_siso(snrs[i], cfg)."""
    scales = [linear_snr(s) for s in snrs]

    def draw(rng, count):
        return _log2_one_plus(rng.standard_exponential(count), scales, np.empty((len(scales), count)))

    return _mean_estimate(cfg, draw)


def sample_penalty_term(T: int, tau: int, snr, cfg: McConfig) -> Estimate:
    """Monte Carlo E[log2(1 + snr*S/(1 + snr*tau))], S a sum of T-tau
    unit-mean exponentials.

    This is the expectation whose closed form is
    log2(e) * sum_{k=1}^{T-tau} eps_k(tau + 1/snr).  S ~ Gamma(T-tau, 1)
    is drawn directly, one variate per sample (numpy's standard_gamma,
    Marsaglia & Tsang 2000), so a sample costs O(1) whatever T-tau is.
    """
    return _sample_penalty_terms(T, (tau,), (snr,), cfg)[0]


def _gamma_sums(rng: np.random.Generator, T: int, taus: Sequence[int], count: int):
    """Yield (tau, S) for each tau of the increasing taus, largest first,
    S holding count Gamma(T - tau, 1) variates, the sums of T - tau unit
    exponentials.

    S starts as one standard_gamma(T - taus[-1]) draw, and each smaller
    pilot count adds to it in place one fresh standard exponential per
    pilot it drops.  The next step overwrites S, so use it before resuming.
    """
    tau = taus[-1]
    s = rng.standard_gamma(T - tau, count)
    e = np.empty(count)
    for want in reversed(taus):
        while tau > want:
            tau -= 1
            s += rng.standard_exponential(out=e)
        yield tau, s


def _sample_penalty_terms(
    T: int, taus: int | Sequence[int], snrs: Sequence, cfg: McConfig
) -> list[Estimate]:
    """sample_penalty_term at every (tau, snr) of taus x snrs, tau-major,
    from one Gamma(T - taus[-1]) draw per block (_gamma_sums).

    taus is one pilot count or a strictly increasing sequence of them.
    The rows of taus[-1] are bit-equal to the one-row calls
    sample_penalty_term(T, taus[-1], snr, cfg).  The rows of a smaller
    tau add exponentials to that draw: they have the law of their
    one-row calls, not their bits.
    """
    taus = tuple(taus) if isinstance(taus, Sequence) else (taus,)
    if not taus:
        raise ValueError("need at least one pilot count")
    taus = tuple(_check_int("tau", tau, 0) for tau in taus)
    if any(b <= a for a, b in zip(taus, taus[1:])):
        raise ValueError(f"pilot counts must be strictly increasing, got {taus}")
    T = _check_int("T", T, taus[-1] + 1)
    snrs = [linear_snr(s) for s in snrs]

    def draw(rng, count):
        out = np.empty((len(taus), len(snrs), count))
        for rows, (tau, s) in zip(out[::-1], _gamma_sums(rng, T, taus, count)):
            _log2_one_plus(s, [snr / (1.0 + snr * tau) for snr in snrs], rows)
        return out

    return _mean_estimate(cfg, draw)


def sample_ctr(t: int, r: int, rho, cfg: McConfig) -> Estimate:
    """Monte Carlo E[log2 det(I + (rho/t) Z Z†)] for IID complex
    Gaussian Z of shape r x t with unit-variance entries.

    The determinant is computed on the smaller-side Gram matrix (the
    two sides agree exactly): in closed form at side 1 or 2, via
    Cholesky factorization above.
    """
    return _sample_ctr_rows(t, r, (rho,), cfg)[0]


def _sample_ctr_rows(t: int, r: int, rhos: Sequence, cfg: McConfig) -> list[Estimate]:
    """sample_ctr at each of rhos from one draw of Z per block: row i is
    bit-equal to sample_ctr(t, r, rhos[i], cfg)."""
    t = _check_int("t", t, 1)
    r = _check_int("r", r, 1)
    rhos = [linear_snr(rho) for rho in rhos]

    def draw(rng, count):
        z = _complex_gaussian(rng, (count, r, t))
        if t <= r:
            gram = np.einsum("nij,nik->njk", z.conj(), z)
        else:
            gram = np.einsum("nij,nkj->nik", z, z.conj())
        out = np.empty((len(rhos), count))
        for row, s in zip(out, rhos):
            row[:] = _log2_det((s / t) * gram, f"t={t}, r={r}, rho={s!r}")
        return out

    return _mean_estimate(cfg, draw, min(t, r))


def sample_delta_mimo(
    params: MimoParams, pilot_gram_diagonal: Sequence[float], cfg: McConfig
) -> Estimate:
    """Monte Carlo estimate of the estimation-penalty term

        n_r * E[log2 det(I + (I + (snr/n_t) diag(d))^{-1} (snr/n_t) X X†)]

    for a diagonal pilot Gram matrix d and IID complex Gaussian data
    X of shape n_t x (T - tau).  Used to check numerically that the
    uniform Gram d = (tau, ..., tau) minimizes the penalty.
    """
    return _sample_delta_mimo_rows(params, (pilot_gram_diagonal,), cfg)[0]


def _sample_delta_mimo_rows(
    params: MimoParams, diagonals: Sequence[Sequence[float]], cfg: McConfig
) -> list[Estimate]:
    """sample_delta_mimo at each of diagonals from one draw of X per
    block: row i is bit-equal to sample_delta_mimo(params, diagonals[i], cfg).
    Every diagonal is checked before anything is drawn."""
    s = params.snr.linear
    n_t, n_r, m = params.n_t, params.n_r, params.T - params.tau
    trace_cap = n_t * params.tau
    weights = []
    for diagonal in diagonals:
        d = np.asarray(diagonal, dtype=float)
        if d.shape != (n_t,):
            raise ValueError(
                f"pilot Gram diagonal must have length n_t={n_t}, got shape {d.shape}"
            )
        if (d < 0.0).any():
            raise ValueError("pilot Gram diagonal entries must be >= 0")
        if d.sum() > trace_cap + 1e-9:
            raise ValueError(
                f"pilot power constraint violated: trace {d.sum()!r} > n_t*tau = {trace_cap}"
            )
        # Symmetrized form: det(I + W S) = det(I + W^{1/2} S W^{1/2}) keeps
        # the factorization Hermitian positive definite.
        weights.append(np.sqrt(1.0 / (1.0 + (s / n_t) * d)))
    label = f"n_t={n_t}, n_r={n_r}, snr={s!r}"

    def draw(rng, count):
        x = _complex_gaussian(rng, (count, n_t, m))
        gram = np.einsum("nij,nkj->nik", x, x.conj())
        out = np.empty((len(weights), count))
        for row, sqrt_w in zip(out, weights):
            sym = (s / n_t) * (sqrt_w[:, None] * gram * sqrt_w[None, :])
            row[:] = n_r * _log2_det(sym, label)
        return out

    return _mean_estimate(cfg, draw, n_t)
