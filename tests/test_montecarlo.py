import concurrent.futures
import math
import tracemalloc

import numpy as np
import pytest

from pilotbounds import montecarlo, sweeps
from pilotbounds.expint import LOG2E, expint_scaled_sum
from pilotbounds.mimo import pilot_gram_optimality_check
from pilotbounds.montecarlo import (
    Estimate,
    McConfig,
    _sample_capacity_rows,
    _sample_ctr_rows,
    _sample_delta_mimo_rows,
    _sample_penalty_terms,
    derive_stream,
    sample_capacity_siso,
    sample_ctr,
    sample_delta_mimo,
    sample_penalty_term,
)
from pilotbounds.params import MimoParams, SnrValue
from pilotbounds.siso import capacity_csi

CFG = McConfig(samples=100_000, seed=42)


def _z(est: Estimate, reference: float) -> float:
    return abs(est.mean - reference) / est.std_error


def test_config_validation():
    with pytest.raises(ValueError):
        McConfig(samples=50)
    with pytest.raises(ValueError):
        McConfig(samples=1000, seed=-1)
    with pytest.raises(ValueError):
        McConfig(samples=1000, seed=2**64)
    with pytest.raises(ValueError):
        McConfig(samples=1000.0)
    # numpy integers are accepted and stored as int
    cfg = McConfig(samples=np.int64(5000), seed=np.uint64(2**64 - 1))
    assert (cfg.samples, cfg.seed) == (5000, 2**64 - 1)
    assert type(cfg.samples) is int and type(cfg.seed) is int


def test_substreams_are_distinct():
    cfg = McConfig(samples=1000, seed=3)
    ids = {cfg.substream(i).stream_id for i in range(50)}
    assert len(ids) == 50
    # derived ids are a pure function of (stream, index)
    assert derive_stream(0, 4) == derive_stream(0, 4)
    assert derive_stream(0, 4) != derive_stream(1, 4)


def test_blocks_draw_from_the_named_bit_generator():
    # validate's JSON meta reports BIT_GENERATOR as the generator its seed keys
    rng = montecarlo._block_rng(McConfig(samples=1000, seed=3), 0)
    assert type(rng.bit_generator).__name__ == montecarlo.BIT_GENERATOR == "SFC64"


def test_capacity_sampler_matches_closed_form():
    for snr in (SnrValue(0.1), SnrValue(1.0), SnrValue(10.0)):
        est = sample_capacity_siso(snr, CFG)
        assert est.samples_used == CFG.samples
        assert _z(est, capacity_csi(snr)) < 5.0


@pytest.mark.parametrize(
    "T,tau", [(2, 0), (2, 1), (6, 2), (10, 1), (100, 1), (1000, 0), (1000, 2)]
)
@pytest.mark.parametrize("s", [1.0, 10.0])
def test_penalty_sampler_matches_closed_form(T, tau, s):
    est = sample_penalty_term(T, tau, SnrValue(s), CFG)
    closed = LOG2E * expint_scaled_sum(T - tau, tau + 1.0 / s)
    assert _z(est, closed) < 5.0


_ROW_SNRS = tuple(SnrValue.from_db(db) for db in (-10.0, 0.0, 10.0, 20.0))


# sample counts that fill one block, and that spill into a second
_BLOCK_SAMPLES = {1: 12_000, 2: 20_000}


@pytest.mark.parametrize("blocks", [1, 2])
@pytest.mark.parametrize(
    "T,tau", [(2, 0), (2, 1), (10, 0), (10, 1), (10, 2), (1000, 0), (1000, 1), (1000, 2)]
)
def test_penalty_rows_match_single_calls(T, tau, blocks):
    # one Gamma draw per block serves every SNR; each row keeps the
    # bits of its own one-row call
    cfg = McConfig(samples=_BLOCK_SAMPLES[blocks], seed=17)
    rows = _sample_penalty_terms(T, (tau,), _ROW_SNRS, cfg)
    assert rows == [sample_penalty_term(T, tau, snr, cfg) for snr in _ROW_SNRS]


@pytest.mark.parametrize("blocks", [1, 2])
def test_capacity_rows_match_single_calls(blocks):
    cfg = McConfig(samples=_BLOCK_SAMPLES[blocks], seed=17)
    rows = _sample_capacity_rows(_ROW_SNRS, cfg)
    assert rows == [sample_capacity_siso(snr, cfg) for snr in _ROW_SNRS]


@pytest.mark.parametrize("blocks", [1, 2])
@pytest.mark.parametrize("t,r", [(1, 1), (1, 4), (4, 1), (2, 3)])
def test_ctr_rows_match_single_calls(t, r, blocks):
    cfg = McConfig(samples=_BLOCK_SAMPLES[blocks], seed=17)
    rows = _sample_ctr_rows(t, r, _ROW_SNRS, cfg)
    assert rows == [sample_ctr(t, r, snr, cfg) for snr in _ROW_SNRS]


@pytest.mark.parametrize("blocks", [1, 2])
@pytest.mark.parametrize("T,taus", [(2, (0, 1)), (20, (0, 1, 2)), (20, (1, 2)), (1000, (0, 2))])
def test_penalty_group_first_rows_match_single_calls(T, taus, blocks):
    # the rows of the largest pilot count, drawn first, draw exactly as a
    # one-row call does; the smaller ones add exponentials to that draw
    cfg = McConfig(samples=_BLOCK_SAMPLES[blocks], seed=17)
    rows = _sample_penalty_terms(T, taus, _ROW_SNRS, cfg)
    assert len(rows) == len(taus) * len(_ROW_SNRS)
    assert rows[-len(_ROW_SNRS):] == [sample_penalty_term(T, taus[-1], snr, cfg) for snr in _ROW_SNRS]


def test_penalty_group_argument_validation():
    snrs = (SnrValue(1.0),)
    for taus in ((), (1, 1), (2, 1), (0, -1)):
        with pytest.raises(ValueError):
            _sample_penalty_terms(10, taus, snrs, CFG)
    with pytest.raises(ValueError):
        _sample_penalty_terms(2, (0, 1, 2), snrs, CFG)  # T must exceed every tau


@pytest.mark.parametrize("T,tau", [(2, 1), (20, 1), (20, 2)])
def test_thinned_gamma_sums_have_gamma_moments(T, tau):
    # the Gamma(T - tau) draw and the sums that add exponentials to it,
    # up to Gamma(T), each have the mean and variance m = T - t of
    # Gamma(m, 1) at their pilot count t, within 5 standard errors
    n = 2**18
    rng = np.random.Generator(np.random.SFC64(2024))
    sums = {t: s.copy() for t, s in montecarlo._gamma_sums(rng, T, range(tau + 1), n)}
    assert list(sums) == list(range(tau, -1, -1))
    for t, s in sums.items():
        m = T - t
        assert abs(s.mean() - m) < 5.0 * math.sqrt(m / n), t
        # Var of the sample variance: (mu4 - sigma^4)/n, mu4 = 3m^2 + 6m
        assert abs(s.var(ddof=1) - m) < 5.0 * math.sqrt((2.0 * m * m + 6.0 * m) / n), t


@pytest.mark.parametrize("shape", [(64, 4, 1), (64, 1, 4), (64, 2, 4)])
def test_complex_gaussian_is_the_scaled_pair_sum(shape):
    # the in-place view keeps the bits of the two-temporary expression
    z = montecarlo._complex_gaussian(np.random.Generator(np.random.Philox(5)), shape)
    a = np.random.Generator(np.random.Philox(5)).standard_normal(shape + (2,))
    expect = (a[..., 0] + 1j * a[..., 1]) * montecarlo._SQRT_HALF
    assert z.shape == shape and z.dtype == np.complex128
    assert np.array_equal(z.view(np.uint64), expect.view(np.uint64))


@pytest.mark.parametrize("blocks", [1, 2])
def test_delta_rows_match_single_calls(blocks):
    p = MimoParams(n_t=2, n_r=2, T=6, tau=2, snr=SnrValue(10.0))
    cfg = McConfig(samples=_BLOCK_SAMPLES[blocks], seed=11)
    diagonals = [(2.0, 2.0), (2.5, 1.5), (4.0, 0.0)]
    rows = _sample_delta_mimo_rows(p, diagonals, cfg)
    assert rows == [sample_delta_mimo(p, d, cfg) for d in diagonals]


def test_delta_rows_check_every_diagonal_before_drawing(monkeypatch):
    def no_draw(*args):
        raise AssertionError("drew before checking the diagonals")

    monkeypatch.setattr(montecarlo, "_mean_estimate", no_draw)
    p = MimoParams(n_t=2, n_r=2, T=6, tau=2, snr=SnrValue(10.0))
    with pytest.raises(ValueError, match="pilot power constraint"):
        _sample_delta_mimo_rows(p, [(2.0, 2.0), (4.0, 1.0)], CFG)


# (mean, std_error) of one-row calls on SFC64 blocks; the one-row path,
# alone or as a row of a shared draw, must keep these bits.
@pytest.mark.parametrize(
    "T,tau,db,seed,mean,se",
    [
        pytest.param(2, 0, 0.0, 1, "0x1.71c7487d3d953p+0", "0x1.9f057bb07fac0p-9", id="T2-tau0-seed1"),
        pytest.param(10, 1, 10.0, 2, "0x1.911e0a4e0533cp+1", "0x1.1b164615c29cdp-9", id="T10-tau1-seed2"),
        pytest.param(1000, 2, -10.0, 3, "0x1.993d7bb572b12p+2", "0x1.d7e1ddb36d5f1p-13", id="T1000-tau2-seed3"),
    ],
)
def test_penalty_sampler_pinned_bits(T, tau, db, seed, mean, se):
    est = sample_penalty_term(T, tau, SnrValue.from_db(db), McConfig(samples=40_000, seed=seed))
    assert (est.mean.hex(), est.std_error.hex()) == (mean, se)


@pytest.mark.parametrize(
    "diagonal,seed,mean,se",
    [
        pytest.param((2.0, 2.0), 1, "0x1.59c9c740c6ea6p+2", "0x1.19c414a634a74p-7", id="uniform-seed1"),
        pytest.param((3.0, 1.0), 2, "0x1.7e80384d7872bp+2", "0x1.2800340035873p-7", id="skewed-seed2"),
        pytest.param((4.0, 0.0), 3, "0x1.3ea423fab9230p+3", "0x1.687837b81abecp-7", id="rank1-seed3"),
    ],
)
def test_delta_sampler_pinned_bits(diagonal, seed, mean, se):
    p = MimoParams(n_t=2, n_r=2, T=6, tau=2, snr=SnrValue(10.0))
    est = sample_delta_mimo(p, diagonal, McConfig(samples=20_000, seed=seed))
    assert (est.mean.hex(), est.std_error.hex()) == (mean, se)


# The Cholesky side (Gram side 3 and up): sample_ctr in both Gram
# orientations (Z† Z at t <= r, Z Z† above) and sample_delta_mimo at
# n_t = 3, two blocks each.  The bits rest on numpy's Cholesky too.
@pytest.mark.parametrize(
    "t,r,seed,mean,se",
    [
        pytest.param(3, 4, 1, "0x1.3b7010142a8e9p+3", "0x1.1ef9b78158b8ep-7", id="3x4-seed1"),
        pytest.param(4, 3, 2, "0x1.1aea670a28a26p+3", "0x1.0fedd9f35d69cp-7", id="4x3-seed2"),
        pytest.param(4, 4, 3, "0x1.5e3b6041700e4p+3", "0x1.28483a42e3e50p-7", id="4x4-seed3"),
    ],
)
def test_ctr_sampler_pinned_bits_at_the_cholesky_side(t, r, seed, mean, se):
    est = sample_ctr(t, r, SnrValue(10.0), McConfig(samples=20_000, seed=seed))
    assert (est.mean.hex(), est.std_error.hex()) == (mean, se)


@pytest.mark.parametrize(
    "diagonal,seed,mean,se",
    [
        pytest.param((3.0, 3.0, 3.0), 1, "0x1.036a42ffec040p+3", "0x1.1684dbf88430ep-7", id="uniform-seed1"),
        pytest.param((4.0, 3.0, 2.0), 2, "0x1.0acbba23efcf1p+3", "0x1.1d9172e656f72p-7", id="skewed-seed2"),
        pytest.param((9.0, 0.0, 0.0), 3, "0x1.1adeeef713834p+4", "0x1.90b2b06caf065p-7", id="rank1-seed3"),
    ],
)
def test_delta_sampler_pinned_bits_at_the_cholesky_side(diagonal, seed, mean, se):
    p = MimoParams(n_t=3, n_r=2, T=9, tau=3, snr=SnrValue(10.0))
    est = sample_delta_mimo(p, diagonal, McConfig(samples=20_000, seed=seed))
    assert (est.mean.hex(), est.std_error.hex()) == (mean, se)


def test_penalty_sampler_block_memory_is_independent_of_block_length():
    # one Gamma(T - tau) variate per sample: a 16384-sample block at
    # T - tau = 999 holds a few count-long vectors, not a count x 999 matrix
    cfg = McConfig(samples=16384, seed=42)
    tracemalloc.start()
    try:
        sample_penalty_term(1000, 1, SnrValue(1.0), cfg)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20


@pytest.mark.parametrize("t,r", [(1, 1), (1, 4), (4, 1)])
def test_ctr_sampler_matches_rank_one_closed_form(t, r):
    rho = SnrValue(10.0)
    est = sample_ctr(t, r, rho, CFG)
    closed = LOG2E * expint_scaled_sum(max(t, r), t / rho.linear)
    assert _z(est, closed) < 5.0


def test_ctr_transpose_symmetry():
    # log det(I + c ZZ') is invariant under Z -> Z', so swapping the
    # antenna counts while keeping rho/t fixed leaves the mean unchanged
    a = sample_ctr(2, 3, SnrValue(5.0), McConfig(samples=200_000, seed=1))
    b = sample_ctr(3, 2, SnrValue(7.5), McConfig(samples=200_000, seed=2))
    combined = math.hypot(a.std_error, b.std_error)
    assert abs(a.mean - b.mean) < 5.0 * combined


class _SpyPool(concurrent.futures.ThreadPoolExecutor):
    """A real ThreadPoolExecutor that records its thread count."""

    sizes = []

    def __init__(self, max_workers):
        self.sizes.append(max_workers)
        super().__init__(max_workers)


# Samplers whose Gram side is at least _POOL_MIN_SIDE, at two blocks
_P4 = MimoParams(n_t=4, n_r=2, T=8, tau=4, snr=SnrValue(10.0))
_POOLED = (
    (sample_ctr, (4, 4, SnrValue(10.0))),
    (sample_ctr, (6, 3, SnrValue(1.0))),
    (sample_delta_mimo, (_P4, (4.0, 4.0, 4.0, 4.0))),
    (_sample_delta_mimo_rows, (_P4, [(4.0,) * 4, (5.0, 3.0, 4.0, 4.0), (16.0, 0.0, 0.0, 0.0)])),
)


def test_worker_count_does_not_change_results(monkeypatch):
    # at and above the pool side, with two blocks, the pooled estimate
    # equals the serial one bit for bit
    assert montecarlo._POOL_MIN_SIDE == 3
    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", _SpyPool)
    cfg = McConfig(samples=20_000, seed=9)
    for fn, args in _POOLED:
        runs = {}
        for cpus in (1, 2, 8):
            monkeypatch.setattr(_SpyPool, "sizes", [])
            monkeypatch.setattr(montecarlo.os, "cpu_count", lambda: cpus)
            runs[cpus] = fn(*args, cfg)
            assert _SpyPool.sizes == ([] if cpus == 1 else [2]), (fn.__name__, cpus)
        assert runs[1] == runs[2] == runs[8], fn.__name__


class _RecordingPool:
    """Stands in for ThreadPoolExecutor: records max_workers, maps serially."""

    sizes = []

    def __init__(self, max_workers):
        self.sizes.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, items):
        return map(fn, items)


@pytest.mark.parametrize(
    "samples,side,cpus,pool_size",
    [
        (6553, 8, 2, None),  # one block runs in the calling thread
        (3 * 16384, 8, 64, 3),  # one thread per block
        (3 * 16384, 8, 2, 2),  # one thread per CPU
        (3 * 16384, 8, None, None),  # unknown CPU count: serial
        (3 * 16384, 2, 64, None),  # below the pool side: serial
        (5 * 16384, 3, 4, 4),  # at the pool side
    ],
)
def test_worker_count_is_capped(monkeypatch, samples, side, cpus, pool_size):
    monkeypatch.setattr(_RecordingPool, "sizes", [])
    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", _RecordingPool)
    monkeypatch.setattr(montecarlo.os, "cpu_count", lambda: cpus)
    cfg = McConfig(samples=samples, seed=9)
    est = sample_ctr(side, side, SnrValue(1.0), cfg)
    assert _RecordingPool.sizes == ([] if pool_size is None else [pool_size])
    monkeypatch.setattr(montecarlo.os, "cpu_count", lambda: 1)
    assert est == sample_ctr(side, side, SnrValue(1.0), cfg)


class _RefusingPool:
    def __init__(self, max_workers):
        raise AssertionError(f"a sampler started {max_workers} threads")


@pytest.mark.parametrize("cpus", [2, 8])
def test_scalar_samplers_draw_in_the_calling_thread(monkeypatch, cpus):
    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", _RefusingPool)
    monkeypatch.setattr(montecarlo.os, "cpu_count", lambda: cpus)
    cfg = McConfig(samples=3 * 16384, seed=9)
    snrs = (SnrValue(0.5), SnrValue(10.0))
    sample_capacity_siso(SnrValue(1.0), cfg)
    sample_penalty_term(10, 1, SnrValue(1.0), cfg)
    _sample_penalty_terms(20, (2,), snrs, cfg)


@pytest.mark.parametrize("cpus", [2, 8])
def test_samplers_below_the_pool_side_draw_in_the_calling_thread(monkeypatch, cpus):
    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", _RefusingPool)
    monkeypatch.setattr(montecarlo.os, "cpu_count", lambda: cpus)
    cfg = McConfig(samples=3 * 16384, seed=9)
    p = MimoParams(n_t=2, n_r=4, T=6, tau=2, snr=SnrValue(10.0))
    sample_ctr(2, 2, SnrValue(10.0), cfg)
    sample_ctr(1, 8, SnrValue(10.0), cfg)
    sample_ctr(8, 2, SnrValue(10.0), cfg)
    sample_delta_mimo(p, (2.0, 2.0), cfg)
    pilot_gram_optimality_check(p, [(2.5, 1.5), (4.0, 0.0)], cfg)


def test_validate_starts_no_thread(monkeypatch):
    # validate's matrices are rank 1 and 2 x 2: at 262144 samples its
    # matrix cells have two blocks each, and still run serially
    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", _RefusingPool)
    monkeypatch.setattr(montecarlo.os, "cpu_count", lambda: 8)
    assert sweeps.validate_all(McConfig(samples=262_144, seed=7)).passed


def test_same_config_reproduces_different_seed_does_not():
    a = sample_capacity_siso(SnrValue(1.0), McConfig(samples=20_000, seed=5))
    b = sample_capacity_siso(SnrValue(1.0), McConfig(samples=20_000, seed=5))
    c = sample_capacity_siso(SnrValue(1.0), McConfig(samples=20_000, seed=6))
    assert a == b
    assert a.mean != c.mean


def test_partial_blocks():
    # sample counts that are not a multiple of the block size still work
    for n in (100, 16384, 16385, 40000):
        est = sample_capacity_siso(SnrValue(1.0), McConfig(samples=n, seed=1))
        assert est.samples_used == n
        assert est.std_error > 0.0


def test_penalty_term_argument_validation():
    with pytest.raises(ValueError):
        sample_penalty_term(2, 2, SnrValue(1.0), CFG)
    with pytest.raises(ValueError):
        sample_penalty_term(2, -1, SnrValue(1.0), CFG)


def test_delta_sampler_orders_perturbations():
    p = MimoParams(n_t=2, n_r=2, T=6, tau=2, snr=SnrValue(10.0))
    cfg = McConfig(samples=20_000, seed=11)
    uniform = sample_delta_mimo(p, (2.0, 2.0), cfg)
    skewed = sample_delta_mimo(p, (4.0, 0.0), cfg)
    # a rank-deficient pilot Gram leaves one direction unestimated
    assert skewed.mean - uniform.mean > 10.0 * math.hypot(
        uniform.std_error, skewed.std_error
    )


def test_delta_sampler_validation():
    p = MimoParams(n_t=2, n_r=2, T=6, tau=2, snr=SnrValue(10.0))
    with pytest.raises(ValueError):
        sample_delta_mimo(p, (2.0,), CFG)
    with pytest.raises(ValueError):
        sample_delta_mimo(p, (-0.5, 4.5), CFG)
    with pytest.raises(ValueError):
        sample_delta_mimo(p, (4.0, 1.0), CFG)  # trace above n_t * tau


def test_cholesky_failure_raises_runtime_error(monkeypatch):
    # both matrix samplers share one log-det, so a failed factorization
    # surfaces as the same RuntimeError from either; sides 1 and 2 take
    # the closed form and never factor
    def fail(m):
        raise np.linalg.LinAlgError("Matrix is not positive definite")

    monkeypatch.setattr(np.linalg, "cholesky", fail)
    cfg = McConfig(samples=200, seed=1)
    with pytest.raises(RuntimeError, match="log-det failed on a 3x3 Gram batch"):
        sample_ctr(3, 4, SnrValue(10.0), cfg)
    p = MimoParams(n_t=3, n_r=2, T=9, tau=3, snr=SnrValue(10.0))
    with pytest.raises(RuntimeError, match="log-det failed on a 3x3 Gram batch"):
        sample_delta_mimo(p, (3.0, 3.0, 3.0), cfg)
    assert sample_ctr(2, 3, SnrValue(10.0), cfg).std_error > 0.0


def _cholesky_log2_det(g):
    ell = np.linalg.cholesky(np.eye(g.shape[-1]) + g)
    return 2.0 * np.log2(np.einsum("nii->ni", ell).real).sum(axis=1)


def _gram_draw(rng, rank, side, n=4096):
    """A real draw behind Z (rank x side) and the complex Gram Z†Z of the
    unit-variance Z the samplers form from it."""
    a = rng.standard_normal((n, rank, side, 2))
    z = (a * montecarlo._SQRT_HALF).view(np.complex128)[..., 0]
    return a, np.einsum("nij,nik->njk", z.conj(), z)


@pytest.mark.parametrize("side,rank", [(1, 1), (1, 3), (2, 1), (2, 2), (2, 5)])
def test_closed_form_log_det_matches_cholesky(side, rank):
    # Below the pool side the log-det is closed form, on the Gram entries
    # _small_gram forms in real arithmetic from the draw.  The two forms
    # round differently: at rank 1 and 40 dB, (1 + g00)(1 + g11) and
    # |g01|^2 cancel from about 1e8-1e10 (7e-13 relative seen), and at
    # -10 dB 1 + g rounds to a few ulp of a log-det near 0 (2e-11 of
    # it seen).  The bound, 1e-10 of max(1, |log2 det|), holds both.
    a, gram = _gram_draw(np.random.Generator(np.random.SFC64(7)), rank, side)
    diag, q = montecarlo._small_gram(a, False)
    for db in range(-10, 41, 10):
        c = 10.0 ** (db / 10.0)
        ref = _cholesky_log2_det(c * gram)
        got = montecarlo._log2_det_small(diag, q, (0.5 * c, 0.5 * c), "test")
        assert got.shape == ref.shape
        err = np.abs(got - ref) / np.maximum(1.0, np.abs(ref))
        assert err.max() <= 1e-10, (db, err.max())


@pytest.mark.parametrize("side", [1, 2, 3])
@pytest.mark.parametrize("bad", ["negative", "nan"])
def test_log_det_rejects_non_positive_definite_and_nan(side, bad):
    # one matrix of a batch with det(I + g) <= 0, or a NaN entry, raises
    # the same RuntimeError at the closed-form sides and at Cholesky's
    a, g = _gram_draw(np.random.Generator(np.random.SFC64(3)), side, side, n=8)
    match = f"log-det failed on a {side}x{side} Gram batch \\(x\\)"
    if side < 3:
        if bad == "nan":
            a[5, 0, 0, 1] = np.nan
        diag, q = montecarlo._small_gram(a, False)
        if bad == "negative":
            diag[0][5] = -4.0  # I + g[5] has the diagonal entry -1 first
        with pytest.raises(RuntimeError, match=match):
            montecarlo._log2_det_small(diag, q, (0.5, 0.5), "x")
        return
    g[5] = 0.0 if bad == "negative" else np.nan
    g[5, 0, 0] -= 2.0  # I + g[5] = diag(-1, 1, ...) where not NaN
    with pytest.raises(RuntimeError, match=match):
        montecarlo._log2_det(g, "x")


def _old_closed_form(g):
    """log2 det(I + g) at side 1 or 2 from a complex Gram batch, as the
    samplers formed it before their Gram went to real arithmetic."""
    det = 1.0 + g[:, 0, 0].real
    if g.shape[-1] == 2:
        b = g[:, 0, 1]
        det *= 1.0 + g[:, 1, 1].real
        det -= b.real * b.real + b.imag * b.imag
    return np.log2(det)


def _complex_route(cfg, draw):
    """(mean, std_error) reduced as _mean_estimate reduces, of the rows
    draw(rng, count) returns for each block of cfg."""
    n = cfg.samples
    total = total_sq = 0.0
    for b in range((n + montecarlo._BLOCK - 1) // montecarlo._BLOCK):
        row = draw(montecarlo._block_rng(cfg, b), min(montecarlo._BLOCK, n - b * montecarlo._BLOCK))
        total += float(row.sum())
        total_sq += float(np.square(row).sum())
    mean = total / n
    var = max(0.0, (total_sq - n * mean * mean) / (n - 1))
    return mean, math.sqrt(var / n)


def _assert_within_few_ulps(est, mean, se):
    # The mean moves by a few ulps at most.  The variance is a difference
    # of sums near mean^2, so a last-bit change of each sample moves the
    # SE by a few of its ulps times 1 + mean^2/var (29 ulps seen in the
    # pinned delta cells, where that factor is about 10).
    assert abs(est.mean - mean) <= 4 * math.ulp(mean), (est.mean, mean)
    var = est.samples_used * est.std_error**2
    assert abs(est.std_error - se) <= 4 * math.ulp(se) * (1.0 + mean * mean / var), (est.std_error, se)


_SMALL_CFG = McConfig(samples=40_000, seed=21)  # two whole blocks and a part


@pytest.mark.parametrize("t,r", [(1, 1), (1, 4), (4, 1), (2, 2), (2, 5), (5, 2)])
@pytest.mark.parametrize("db", [0.0, 10.0])
def test_small_side_ctr_matches_the_complex_route(t, r, db):
    # the same draws through an einsum Gram and the complex closed form
    rho = SnrValue.from_db(db)

    def draw(rng, count):
        z = montecarlo._complex_gaussian(rng, (count, r, t))
        gram = np.einsum("nij,nik->njk", z.conj(), z) if t <= r else np.einsum("nij,nkj->nik", z, z.conj())
        return _old_closed_form((rho.linear / t) * gram)

    _assert_within_few_ulps(sample_ctr(t, r, rho, _SMALL_CFG), *_complex_route(_SMALL_CFG, draw))


@pytest.mark.parametrize(
    "n_t,diagonal", [(1, (2.0,)), (1, (0.5,)), (2, (2.0, 2.0)), (2, (3.0, 1.0)), (2, (4.0, 0.0))]
)
def test_small_side_delta_matches_the_complex_route(n_t, diagonal):
    p = MimoParams(n_t=n_t, n_r=2, T=6, tau=2, snr=SnrValue(10.0))
    s = p.snr.linear
    sqrt_w = np.sqrt(1.0 / (1.0 + (s / n_t) * np.asarray(diagonal)))

    def draw(rng, count):
        x = montecarlo._complex_gaussian(rng, (count, n_t, p.T - p.tau))
        gram = np.einsum("nij,nkj->nik", x, x.conj())
        return p.n_r * _old_closed_form((s / n_t) * (sqrt_w[:, None] * gram * sqrt_w[None, :]))

    _assert_within_few_ulps(sample_delta_mimo(p, diagonal, _SMALL_CFG), *_complex_route(_SMALL_CFG, draw))


def test_small_side_nan_batch_raises_with_its_label(monkeypatch):
    # a NaN in the draw reaches the closed form, which names the sampler's
    # arguments, at sides 1 and 2 of both samplers
    real = montecarlo._small_gram

    def poisoned(a, by_rows):
        a[3] = np.nan
        return real(a, by_rows)

    monkeypatch.setattr(montecarlo, "_small_gram", poisoned)
    cfg = McConfig(samples=200, seed=1)
    with pytest.raises(RuntimeError, match=r"1x1 Gram batch \(t=1, r=3, rho=10\.0\)"):
        sample_ctr(1, 3, SnrValue(10.0), cfg)
    with pytest.raises(RuntimeError, match=r"2x2 Gram batch \(t=5, r=2, rho=10\.0\)"):
        sample_ctr(5, 2, SnrValue(10.0), cfg)
    p = MimoParams(n_t=2, n_r=3, T=6, tau=2, snr=SnrValue(10.0))
    with pytest.raises(RuntimeError, match=r"2x2 Gram batch \(n_t=2, n_r=3, snr=10\.0\)"):
        sample_delta_mimo(p, (2.0, 2.0), cfg)
