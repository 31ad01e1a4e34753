"""Parameter types shared across the bound and estimator modules."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# One 3-dB unit is the horizontal spacing of log2-scale spectral
# efficiency intercepts: 10*log10(2) dB.
DB_PER_UNIT = 10.0 * math.log10(2.0)


@dataclass(frozen=True)
class SnrValue:
    """Signal-to-noise ratio stored in linear scale."""

    linear: float

    def __post_init__(self):
        if not isinstance(self.linear, (int, float)) or isinstance(self.linear, bool):
            raise ValueError(f"snr must be numeric, got {self.linear!r}")
        object.__setattr__(self, "linear", float(self.linear))
        if not math.isfinite(self.linear) or self.linear <= 0.0:
            raise ValueError(f"snr must be finite and > 0, got {self.linear!r}")

    @classmethod
    def from_db(cls, db: float) -> "SnrValue":
        try:
            linear = 10.0 ** (float(db) / 10.0)
        except OverflowError:
            raise ValueError(f"snr of {db!r} dB overflows a float") from None
        return cls(linear)

    @property
    def db(self) -> float:
        return 10.0 * math.log10(self.linear)


def linear_snr(snr) -> float:
    """Coerce an SnrValue or bare linear number to a validated float."""
    if isinstance(snr, SnrValue):
        return snr.linear
    return SnrValue(snr).linear


def _check_int(name: str, value, minimum: int) -> int:
    """A Python or numpy integer >= minimum, returned as int; bool,
    floats and None raise ValueError."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if value < minimum:
        raise ValueError(f"{name} must be >= {minimum}, got {value}")
    return int(value)


def _check_snr_blocklength(snr: float, T: int) -> None:
    """The bounds over a block form snr*T (and snr*tau, tau < T); past
    the float range they would return inf or nan."""
    if math.isinf(snr * T):
        raise ValueError(f"snr*T overflows a float: snr={snr!r}, T={T}")


@dataclass(frozen=True)
class SisoParams:
    """Scalar-channel configuration: blocklength T, pilots tau, SNR."""

    T: int
    tau: int
    snr: SnrValue

    def __post_init__(self):
        for name, minimum in (("T", 2), ("tau", 0)):
            object.__setattr__(self, name, _check_int(name, getattr(self, name), minimum))
        if self.tau >= self.T:
            raise ValueError(f"tau must satisfy 0 <= tau < T, got tau={self.tau}, T={self.T}")
        if not isinstance(self.snr, SnrValue):
            object.__setattr__(self, "snr", SnrValue(self.snr))
        _check_snr_blocklength(self.snr.linear, self.T)


@dataclass(frozen=True)
class MimoParams:
    """MIMO configuration; pilots occupy whole symbols across antennas.

    The joint bounds require tau = 0 or tau >= n_t (fewer pilot symbols
    than transmit antennas cannot excite every direction).
    """

    n_t: int
    n_r: int
    T: int
    tau: int
    snr: SnrValue

    def __post_init__(self):
        for name, minimum in (("n_t", 1), ("n_r", 1), ("T", 2), ("tau", 0)):
            object.__setattr__(self, name, _check_int(name, getattr(self, name), minimum))
        if self.tau >= self.T:
            raise ValueError(f"tau must satisfy tau < T, got tau={self.tau}, T={self.T}")
        if self.tau != 0 and self.tau < self.n_t:
            raise ValueError(
                f"tau must be 0 or >= n_t, got tau={self.tau}, n_t={self.n_t}"
            )
        if not isinstance(self.snr, SnrValue):
            object.__setattr__(self, "snr", SnrValue(self.snr))
        _check_snr_blocklength(self.snr.linear, self.T)


@dataclass(frozen=True)
class PowerOffset:
    """High-SNR horizontal offset, stored in 3-dB units."""

    value_3db_units: float

    @property
    def value_db(self) -> float:
        return self.value_3db_units * DB_PER_UNIT
