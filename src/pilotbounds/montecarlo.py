"""Seeded Monte Carlo estimators for every expectation in the toolkit.

These samplers are both the computation path for MIMO capacity
functionals and the independent oracle backing the scalar closed forms.

Reproducibility contract: an estimate is a pure function of
(seed, stream_id, samples).  Draws are generated in fixed blocks of
16384 samples, each block from its own Philox generator keyed by
SeedSequence([seed, stream_id, block_index]), and per-block partial
sums are reduced in block order.  Worker threads only change which
thread computes a block, never the draws or the reduction order, so
results are bit-identical across worker counts.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .params import MimoParams, _check_int, linear_snr

_BLOCK = 16384
_SQRT_HALF = math.sqrt(0.5)
_MASK64 = (1 << 64) - 1

# Default sample counts put standard errors near 1e-3 bits/s/Hz.
DEFAULT_SCALAR_SAMPLES = 1_000_000
DEFAULT_MATRIX_SAMPLES = 100_000


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

    Exact closed-form fast paths report std_error 0.0 and
    samples_used 0: no draws were consumed.
    """

    mean: float
    std_error: float
    samples_used: int


def _block_rng(cfg: McConfig, block_index: int) -> np.random.Generator:
    seq = np.random.SeedSequence([cfg.seed, cfg.stream_id, block_index])
    return np.random.Generator(np.random.Philox(seq))


def _mean_estimate(
    cfg: McConfig,
    draw: Callable[[np.random.Generator, int], np.ndarray],
    workers: int = 1,
) -> Estimate:
    """Reduce per-block partial sums of draw(rng, count) in block order.

    At most one thread per block and per CPU runs; a single one runs in
    the calling thread.
    """
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    n = cfg.samples
    n_blocks = (n + _BLOCK - 1) // _BLOCK
    workers = min(workers, n_blocks, os.cpu_count() or 1)

    def one_block(b: int) -> tuple[float, float]:
        count = min(_BLOCK, n - b * _BLOCK)
        values = np.asarray(draw(_block_rng(cfg, b), count), dtype=float)
        return float(values.sum()), float((values * values).sum())

    if workers == 1:
        parts = [one_block(b) for b in range(n_blocks)]
    else:
        with ThreadPoolExecutor(max_workers=workers) as ex:
            parts = list(ex.map(one_block, range(n_blocks)))

    total = 0.0
    total_sq = 0.0
    for s, q in parts:
        total += s
        total_sq += q
    mean = total / n
    var = max(0.0, (total_sq - n * mean * mean) / (n - 1))
    return Estimate(mean=mean, std_error=math.sqrt(var / n), samples_used=n)


def _exponential(rng: np.random.Generator, shape) -> np.ndarray:
    # Unit-mean exponentials by inverse CDF; one uniform per variate.
    return -np.log1p(-rng.random(shape))


def _complex_gaussian(rng: np.random.Generator, shape: tuple) -> np.ndarray:
    """IID circular complex Gaussians of unit variance, from one real draw."""
    a = rng.standard_normal(shape + (2,))
    return (a[..., 0] + 1j * a[..., 1]) * _SQRT_HALF


def _log2_det(g: np.ndarray, label: str) -> np.ndarray:
    """log2 det(I + g) over a batch of Hermitian g with I + g positive definite."""
    side = g.shape[-1]
    try:
        ell = np.linalg.cholesky(np.eye(side) + g)
    except np.linalg.LinAlgError as exc:
        raise RuntimeError(
            f"Cholesky failed on a {side}x{side} Gram batch "
            f"({label}); input should be positive definite"
        ) from exc
    return 2.0 * np.log2(np.einsum("nii->ni", ell).real).sum(axis=1)


def sample_capacity_siso(snr, cfg: McConfig, workers: int = 1) -> Estimate:
    """Monte Carlo E[log2(1 + snr*|H|^2)] with |H|^2 unit-mean exponential.

    Args:
        snr: linear SNR (SnrValue or positive float).
        cfg: sampling configuration.
        workers: thread count; does not affect the result bits.
    """
    s = linear_snr(snr)

    def draw(rng, count):
        return np.log2(1.0 + s * _exponential(rng, count))

    return _mean_estimate(cfg, draw, workers)


def sample_penalty_term(T: int, tau: int, snr, cfg: McConfig, workers: int = 1) -> Estimate:
    """Monte Carlo E[log2(1 + snr*S/(1 + snr*tau))], S a sum of T-tau
    unit-mean exponentials.

    This is the expectation whose closed form is
    log2(e) * sum_{k=1}^{T-tau} eps_k(tau + 1/snr).
    """
    tau = _check_int("tau", tau, 0)
    T = _check_int("T", T, tau + 1)
    s = linear_snr(snr)
    m = T - tau
    scale = s / (1.0 + s * tau)

    def draw(rng, count):
        total = _exponential(rng, (count, m)).sum(axis=1)
        return np.log2(1.0 + scale * total)

    return _mean_estimate(cfg, draw, workers)


def sample_ctr(t: int, r: int, rho, cfg: McConfig, workers: int = 1) -> Estimate:
    """Monte Carlo E[log2 det(I + (rho/t) Z Z†)] for IID complex
    Gaussian Z of shape r x t with unit-variance entries.

    The determinant is computed on the smaller-side Gram matrix (the
    two sides agree exactly) via Cholesky factorization.
    """
    t = _check_int("t", t, 1)
    r = _check_int("r", r, 1)
    s = linear_snr(rho)

    def draw(rng, count):
        z = _complex_gaussian(rng, (count, r, t))
        if t <= r:
            gram = np.einsum("nij,nik->njk", z.conj(), z)
        else:
            gram = np.einsum("nij,nkj->nik", z, z.conj())
        return _log2_det((s / t) * gram, f"t={t}, r={r}, rho={s!r}")

    return _mean_estimate(cfg, draw, workers)


def sample_delta_mimo(
    params: MimoParams,
    pilot_gram_diagonal: Sequence[float],
    cfg: McConfig,
    workers: int = 1,
) -> Estimate:
    """Monte Carlo estimate of the estimation-penalty term

        n_r * E[log2 det(I + (I + (snr/n_t) diag(d))^{-1} (snr/n_t) X X†)]

    for a diagonal pilot Gram matrix d and IID complex Gaussian data
    X of shape n_t x (T - tau).  Used to check numerically that the
    uniform Gram d = (tau, ..., tau) minimizes the penalty.
    """
    d = np.asarray(pilot_gram_diagonal, dtype=float)
    if d.shape != (params.n_t,):
        raise ValueError(
            f"pilot Gram diagonal must have length n_t={params.n_t}, got shape {d.shape}"
        )
    if (d < 0.0).any():
        raise ValueError("pilot Gram diagonal entries must be >= 0")
    trace_cap = params.n_t * params.tau
    if d.sum() > trace_cap + 1e-9:
        raise ValueError(
            f"pilot power constraint violated: trace {d.sum()!r} > n_t*tau = {trace_cap}"
        )
    s = params.snr.linear
    n_t, n_r, m = params.n_t, params.n_r, params.T - params.tau
    # Symmetrized form: det(I + W S) = det(I + W^{1/2} S W^{1/2}) keeps
    # the factorization Hermitian positive definite.
    sqrt_w = np.sqrt(1.0 / (1.0 + (s / n_t) * d))

    def draw(rng, count):
        x = _complex_gaussian(rng, (count, n_t, m))
        gram = np.einsum("nij,nkj->nik", x, x.conj())
        sym = (s / n_t) * (sqrt_w[:, None] * gram * sqrt_w[None, :])
        return n_r * _log2_det(sym, f"n_t={n_t}, n_r={n_r}, snr={s!r}")

    return _mean_estimate(cfg, draw, workers)
