import math

import numpy as np
import pytest

from pilotbounds import montecarlo
from pilotbounds.expint import LOG2E, expint_scaled_sum
from pilotbounds.montecarlo import (
    Estimate,
    McConfig,
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


def test_capacity_sampler_matches_closed_form():
    for snr in (SnrValue(0.1), SnrValue(1.0), SnrValue(10.0)):
        est = sample_capacity_siso(snr, CFG)
        assert est.samples_used == CFG.samples
        assert _z(est, capacity_csi(snr)) < 5.0


@pytest.mark.parametrize(
    "T,tau", [(2, 0), (2, 1), (6, 2), (10, 1)]
)
@pytest.mark.parametrize("s", [1.0, 10.0])
def test_penalty_sampler_matches_closed_form(T, tau, s):
    est = sample_penalty_term(T, tau, SnrValue(s), CFG)
    closed = LOG2E * expint_scaled_sum(T - tau, tau + 1.0 / s)
    assert _z(est, closed) < 5.0


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


def test_worker_count_does_not_change_results():
    for fn, args in (
        (sample_capacity_siso, (SnrValue(1.0),)),
        (sample_penalty_term, (10, 1, SnrValue(1.0))),
        (sample_ctr, (2, 2, SnrValue(10.0))),
    ):
        one = fn(*args, McConfig(samples=50_000, seed=9), 1)
        two = fn(*args, McConfig(samples=50_000, seed=9), 2)
        eight = fn(*args, McConfig(samples=50_000, seed=9), 8)
        assert one == two == eight


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
    "samples,workers,cpus,pool_size",
    [
        (6553, 2, 2, None),  # one block runs in the calling thread
        (3 * 16384, 8, 64, 3),  # one thread per block
        (3 * 16384, 8, 2, 2),  # one thread per CPU
        (3 * 16384, 2, None, None),  # unknown CPU count: serial
        (5 * 16384, 4, 8, 4),
    ],
)
def test_worker_count_is_capped(monkeypatch, samples, workers, cpus, pool_size):
    monkeypatch.setattr(_RecordingPool, "sizes", [])
    monkeypatch.setattr(montecarlo, "ThreadPoolExecutor", _RecordingPool)
    monkeypatch.setattr(montecarlo.os, "cpu_count", lambda: cpus)
    cfg = McConfig(samples=samples, seed=9)
    est = sample_capacity_siso(SnrValue(1.0), cfg, workers)
    assert _RecordingPool.sizes == ([] if pool_size is None else [pool_size])
    assert est == sample_capacity_siso(SnrValue(1.0), cfg, 1)


@pytest.mark.parametrize("workers", [0, -1])
def test_worker_count_validation(workers):
    with pytest.raises(ValueError):
        sample_capacity_siso(SnrValue(1.0), McConfig(samples=1000, seed=9), workers)


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
    # surfaces as the same RuntimeError from either
    def fail(m):
        raise np.linalg.LinAlgError("Matrix is not positive definite")

    monkeypatch.setattr(np.linalg, "cholesky", fail)
    cfg = McConfig(samples=200, seed=1)
    with pytest.raises(RuntimeError, match="Cholesky failed on a 2x2 Gram batch"):
        sample_ctr(2, 3, SnrValue(10.0), cfg)
    p = MimoParams(n_t=2, n_r=2, T=6, tau=2, snr=SnrValue(10.0))
    with pytest.raises(RuntimeError, match="Cholesky failed on a 2x2 Gram batch"):
        sample_delta_mimo(p, (2.0, 2.0), cfg)
