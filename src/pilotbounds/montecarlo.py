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
Cholesky factorization of a complex Gram that a second thread runs
35-55% faster.  Below that side the log-det has a closed form, and the
Gram is formed in real arithmetic from the real and imaginary parts of
the same standard-normal draw (_small_gram), with the 1/2 of the unit
variance folded into the scale: no complex array, no per-row scaling.
Each log-det there lies within a few ulps of the complex-Gram closed
form.  Every other estimate, all of validate's among them, runs in the
calling thread.

Estimates that can share draws share them (common random numbers): one
block's draw may yield k rows, one per estimate, each reduced as it is
yielded exactly as a lone estimate is, so each row is still a pure
function of McConfig, and a block holds one row at a time, not k.
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
from typing import Callable, Iterator, NamedTuple, Sequence

import numpy as np

from .params import MimoParams, _check_int, linear_snr

_BLOCK = 16384
_SQRT_HALF = math.sqrt(0.5)
_MASK64 = (1 << 64) - 1
# The smallest Gram side whose blocks go to a thread pool.  sample_ctr
# n x n at 10 dB, 10^5 samples (7 blocks), serial -> two threads on a
# 2-vCPU x86 host shared with other work, median ms of 12 alternating
# pairs (2x2: each side a fresh process, median of 11 calls, with the
# Gram in real arithmetic):
#
#   side   wall            CPU            pool faster (wall)
#   2x2     11.3 ->   9.7   11.8 ->  13.5  8 of 12, at no more CPU 1
#   3x3    108.4 ->  71.8  107.5 -> 119.8  11 of 12
#   4x4    174.7 -> 109.7  173.7 -> 193.0  12 of 12
#   8x8    805.9 -> 381.0  805.8 -> 694.1  12 of 12
#
# Below side 3 the log-det is closed form (_log2_det_small) on a Gram
# formed in real arithmetic (_small_gram).  A 2x2 block is then mostly
# its draws: a second thread cuts its wall time when a second CPU is
# free, but costs CPU time in 11 of the 12 pairs, so side 2 stays serial.
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
    draw: Callable[[np.random.Generator, int], Iterator[np.ndarray]],
    side: int = 1,
) -> list[Estimate]:
    """Reduce per-block partial sums of draw(rng, count) in block order.

    draw yields k rows of count values, one per Estimate; each row is
    reduced as it comes, and may be overwritten there, so draw can fill
    one buffer for every row.  side is the side of draw's Gram matrices,
    1 for the scalar samplers (module docstring).
    """
    n = cfg.samples
    n_blocks = (n + _BLOCK - 1) // _BLOCK
    threads = min(n_blocks, os.cpu_count() or 1) if side >= _POOL_MIN_SIDE else 1

    def one_block(b: int) -> list[tuple[float, float]]:
        count = min(_BLOCK, n - b * _BLOCK)
        return [
            (float(row.sum()), float(np.square(row, out=row).sum()))
            for row in draw(_block_rng(cfg, b), count)
        ]

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


def _small_gram(a: np.ndarray, by_rows: bool) -> tuple[list[np.ndarray], np.ndarray | None]:
    """The Gram matrix of a batch of Z = a[..., 0] + i a[..., 1] at side 1
    or 2, in real arithmetic: (diag, q), diag[k] = G_kk and q = |G_01|^2
    (None at side 1), for G = Z Z† (by_rows) or Z† Z.

    a is the real draw behind _complex_gaussian, shape (count, rows, cols,
    2), unscaled: G is twice the Gram of the unit-variance Z.  Each sum
    adds whole strided rows of count values, one per real entry, in entry
    order.  sample_ctr at 10 dB and 10^5 samples on a 2-vCPU x86 host,
    2 x 2 / 2 x 8 / 8 x 2: 11 / 77 / 87 ms so; 17 / 71 / 78 ms after a
    transposing copy of the draw to contiguous rows.  Multi-axis numpy
    reductions took four times as long on a hot 2 x 2 block.
    """
    count = a.shape[0]
    v = a.transpose(1, 2, 3, 0) if by_rows else a.transpose(2, 1, 3, 0)  # [vector, entry, re/im, sample]
    diag = []
    for u in v:
        acc = np.zeros(count)
        for re, im in u:
            acc += np.square(re)
            acc += np.square(im)
        diag.append(acc)
    if len(v) == 1:
        return diag, None
    re, im = np.zeros(count), np.zeros(count)
    for (xr, xi), (yr, yi) in zip(*v):
        re += xr * yr
        re += xi * yi
        im += xr * yi
        im -= xi * yr
    re *= re
    im *= im
    re += im
    return diag, re


def _not_positive_definite(side: int, label: str) -> RuntimeError:
    return RuntimeError(
        f"log-det failed on a {side}x{side} Gram batch ({label}); "
        "input should be positive definite"
    )


def _log2_det_small(
    diag: Sequence[np.ndarray], q: np.ndarray | None, scales: Sequence[float], label: str
) -> np.ndarray:
    """log2 det(I + D G D), D = diag(sqrt(scales)), for the side-1 or side-2
    Gram entries (diag, q) of _small_gram: in closed form, 1 + c0 g00 and
    (1 + c0 g00)(1 + c1 g11) - c0 c1 |g01|^2.  A non-positive or NaN
    determinant raises RuntimeError."""
    det = 1.0 + scales[0] * diag[0]
    if q is not None:
        det *= 1.0 + scales[1] * diag[1]
        det -= (scales[0] * scales[1]) * q
    if not (det > 0.0).all():  # NaN fails the test too
        raise _not_positive_definite(len(diag), label)
    return np.log2(det, out=det)


def _log2_det(g: np.ndarray, label: str) -> np.ndarray:
    """log2 det(I + g) over a batch of Hermitian g, side 3 or more, with
    I + g positive definite, by Cholesky factorization (sides 1 and 2:
    _log2_det_small).  A failed factorization or a non-positive or NaN
    pivot raises RuntimeError.
    """
    side = g.shape[-1]
    try:
        ell = np.linalg.cholesky(np.eye(side) + g)
    except np.linalg.LinAlgError as exc:
        raise _not_positive_definite(side, label) from exc
    pivots = np.einsum("nii->ni", ell).real
    if not (pivots > 0.0).all():  # a NaN batch factors without an error
        raise _not_positive_definite(side, label)
    return 2.0 * np.log2(pivots).sum(axis=1)


def _log2_one_plus(x: np.ndarray, scales: Sequence[float], row: np.ndarray) -> Iterator[np.ndarray]:
    """Yield row filled with log2(1 + scale*x) for each of scales, in
    place: the same roundings as np.log2(1.0 + scale * x), no temporaries.
    The next step overwrites row, so use it before resuming."""
    for scale in scales:
        np.multiply(x, scale, out=row)
        row += 1.0
        np.log2(row, out=row)
        yield row


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
        return _log2_one_plus(rng.standard_exponential(count), scales, np.empty(count))

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


def _sample_penalty_terms(T: int, taus: Sequence[int], snrs: Sequence, cfg: McConfig) -> list[Estimate]:
    """sample_penalty_term at every (tau, snr) of taus x snrs, tau-major,
    from one Gamma(T - taus[-1]) draw per block (_gamma_sums).

    taus is a strictly increasing sequence of pilot counts.  The rows of
    taus[-1] are bit-equal to the one-row calls sample_penalty_term(T,
    taus[-1], snr, cfg).  The rows of a smaller tau add exponentials to
    that draw: they have the law of their one-row calls, not their bits.
    """
    taus = tuple(_check_int("tau", tau, 0) for tau in taus)
    if not taus:
        raise ValueError("need at least one pilot count")
    if any(b <= a for a, b in zip(taus, taus[1:])):
        raise ValueError(f"pilot counts must be strictly increasing, got {taus}")
    T = _check_int("T", T, taus[-1] + 1)
    snrs = [linear_snr(s) for s in snrs]

    def draw(rng, count):
        row = np.empty(count)
        for tau, s in _gamma_sums(rng, T, taus, count):
            yield from _log2_one_plus(s, [snr / (1.0 + snr * tau) for snr in snrs], row)

    rows = _mean_estimate(cfg, draw)
    groups = [rows[i:i + len(snrs)] for i in range(0, len(rows), len(snrs))]  # largest tau first
    return [est for group in reversed(groups) for est in group]


def sample_ctr(t: int, r: int, rho, cfg: McConfig) -> Estimate:
    """Monte Carlo E[log2 det(I + (rho/t) Z Z†)] for IID complex
    Gaussian Z of shape r x t with unit-variance entries.

    The determinant is computed on the smaller-side Gram matrix (the
    two sides agree exactly): in closed form, in real arithmetic, at
    side 1 or 2, via Cholesky factorization above.
    """
    return _sample_ctr_rows(t, r, (rho,), cfg)[0]


def _sample_ctr_rows(t: int, r: int, rhos: Sequence, cfg: McConfig) -> list[Estimate]:
    """sample_ctr at each of rhos from one draw of Z per block: row i is
    bit-equal to sample_ctr(t, r, rhos[i], cfg)."""
    t = _check_int("t", t, 1)
    r = _check_int("r", r, 1)
    ones = np.ones(min(t, r))
    rows = [(s / t, ones, f"t={t}, r={r}, rho={s!r}") for s in map(linear_snr, rhos)]
    return _sample_log2_det_rows((r, t), t > r, 1, rows, cfg)


def _sample_log2_det_rows(
    shape: tuple[int, int], by_rows: bool, factor: int, rows: Sequence, cfg: McConfig
) -> list[Estimate]:
    """factor * E[log2 det(I + g W^{1/2} G W^{1/2})] for each row (g, w,
    label) of rows, from one draw per block of Z, IID complex Gaussian of
    unit variance and the given shape: G = Z Z† (by_rows) or Z† Z, W =
    diag(w), and label names the arguments in a log-det error.

    At Gram side 1 or 2 the log-det is closed form on the Gram entries in
    real arithmetic, with the scales 0.5*g*w (the 1/2 of Z's unit
    variance); above, Cholesky takes det(I + g W^{1/2} G W^{1/2}), whose
    weighted Gram stays Hermitian positive definite.  A product with
    w = 1.0 or factor = 1 is exact, so a row keeps the bits of the
    unweighted expression."""
    side = shape[0] if by_rows else shape[1]
    small = [(0.5 * g * w).tolist() for g, w, _ in rows]
    sqrt_w = [np.sqrt(w) for _, w, _ in rows]

    def draw(rng, count):
        if side <= 2:
            diag, q = _small_gram(rng.standard_normal((count, *shape, 2)), by_rows)
            for scales, (_, _, label) in zip(small, rows):
                yield factor * _log2_det_small(diag, q, scales, label)
            return
        z = _complex_gaussian(rng, (count, *shape))
        gram = np.einsum("nij,nkj->nik", z, z.conj()) if by_rows else np.einsum("nij,nik->njk", z.conj(), z)
        for (g, _, label), v in zip(rows, sqrt_w):
            yield factor * _log2_det(g * (v[:, None] * gram * v[None, :]), label)

    return _mean_estimate(cfg, draw, side)


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
    n_t, n_r = params.n_t, params.n_r
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
        weights.append(1.0 / (1.0 + (s / n_t) * d))
    rows = [(s / n_t, w, f"n_t={n_t}, n_r={n_r}, snr={s!r}") for w in weights]
    return _sample_log2_det_rows((n_t, params.T - params.tau), True, n_r, rows, cfg)
