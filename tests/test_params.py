import math

import numpy as np
import pytest

from pilotbounds.params import (
    DB_PER_UNIT,
    MimoParams,
    PowerOffset,
    SisoParams,
    SnrValue,
    _check_int,
    linear_snr,
)


def test_db_per_unit():
    assert DB_PER_UNIT == pytest.approx(3.0102999566398120, rel=1e-15)
    assert DB_PER_UNIT == pytest.approx(10.0 * math.log10(2.0), rel=0)


def test_snr_roundtrip():
    assert SnrValue.from_db(0.0).linear == 1.0
    assert SnrValue.from_db(10.0).linear == 10.0
    for db in (-17.0, -3.0, 0.5, 42.0):
        assert SnrValue.from_db(db).db == pytest.approx(db, rel=1e-12)


@pytest.mark.parametrize("bad", [0.0, -1.0, math.nan, math.inf])
def test_snr_validation(bad):
    with pytest.raises(ValueError):
        SnrValue(bad)


@pytest.mark.parametrize("db", [1e5, 3100.0])
def test_snr_from_db_overflow(db):
    with pytest.raises(ValueError):
        SnrValue.from_db(db)


def test_linear_snr_coercion():
    assert linear_snr(SnrValue(2.0)) == 2.0
    assert linear_snr(3.5) == 3.5
    with pytest.raises(ValueError):
        linear_snr(-1.0)


def test_siso_params():
    p = SisoParams(T=10, tau=0, snr=SnrValue(1.0))
    assert p.tau == 0
    # plain floats are accepted for snr and wrapped
    assert SisoParams(T=10, tau=1, snr=2.0).snr.linear == 2.0
    with pytest.raises(ValueError):
        SisoParams(T=1, tau=0, snr=1.0)
    with pytest.raises(ValueError):
        SisoParams(T=10, tau=-1, snr=1.0)
    with pytest.raises(ValueError):
        SisoParams(T=10, tau=10, snr=1.0)
    with pytest.raises(ValueError):
        SisoParams(T=True, tau=0, snr=1.0)


@pytest.mark.parametrize("good", [3, np.int64(3), np.uint8(3)])
def test_integer_check_accepts_numpy_integers(good):
    value = _check_int("n", good, 1)
    assert value == 3 and type(value) is int
    p = MimoParams(n_t=good, n_r=good, T=good + 5, tau=good, snr=1.0)
    assert all(type(v) is int for v in (p.n_t, p.n_r, p.T, p.tau))


@pytest.mark.parametrize("bad", [True, 3.0, None, "3", 0])
def test_integer_check_rejects(bad):
    with pytest.raises(ValueError):
        _check_int("n", bad, 1)


def test_mimo_params():
    MimoParams(n_t=2, n_r=2, T=6, tau=0, snr=1.0)
    MimoParams(n_t=2, n_r=2, T=6, tau=2, snr=1.0)
    MimoParams(n_t=2, n_r=2, T=6, tau=5, snr=1.0)
    # tau between 1 and n_t-1 wastes pilots without identifying the channel
    with pytest.raises(ValueError):
        MimoParams(n_t=2, n_r=2, T=6, tau=1, snr=1.0)
    with pytest.raises(ValueError):
        MimoParams(n_t=2, n_r=2, T=6, tau=6, snr=1.0)
    with pytest.raises(ValueError):
        MimoParams(n_t=0, n_r=2, T=6, tau=0, snr=1.0)


def test_power_offset_units():
    off = PowerOffset(1.0)
    assert off.value_db == pytest.approx(DB_PER_UNIT, rel=0)
    assert PowerOffset(0.0).value_db == 0.0
