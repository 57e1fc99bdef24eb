"""Simulated real-valued AWGN channel, deterministic under seed.

SNR convention: the per-symbol SNR in dB, defined on unit-mean-square
symbols, so the noise variance is 10**(-snr_db / 10).  The PRNG is NumPy's
PCG64 via ``default_rng(seed)``; a fresh generator is created per
transmission, so identical (symbols, snr_db, seed) triples always produce
identical output.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass

import numpy as np


# SNRs are accepted within +/- this many dB: the noise variance stays within
# 1e-30..1e30, where 10**(-snr_db / 10) cannot overflow
SNR_DB_LIMIT = 300.0
SNR_DB_RANGE = f"finite and between {-SNR_DB_LIMIT:g} and {SNR_DB_LIMIT:g} dB"


def snr_db_ok(snr_db: float) -> bool:
    """Whether ``snr_db`` is a finite SNR within +/- ``SNR_DB_LIMIT``."""
    return math.isfinite(snr_db) and abs(snr_db) <= SNR_DB_LIMIT


def noise_variance(snr_db: float) -> float:
    return float(10.0 ** (-snr_db / 10.0))


def awgn(symbols: np.ndarray, snr_db: float, seed: int) -> np.ndarray:
    """Add white Gaussian noise with variance 10**(-snr_db/10) to a 1-D
    array of real symbols; the noise is drawn from ``default_rng(seed)``."""
    if not snr_db_ok(snr_db):
        raise ValueError(f"snr_db must be {SNR_DB_RANGE}, got {snr_db!r}")
    if np.ndim(symbols) != 1:
        raise ValueError("symbols must be one-dimensional")
    sigma = np.sqrt(noise_variance(snr_db))
    noisy = np.random.default_rng(seed).standard_normal(np.size(symbols))
    noisy *= sigma
    noisy += symbols
    return noisy


def derive_seed(base_seed: int, *labels) -> int:
    """Deterministic per-stage seed derivation: SHA-256 over the base seed
    and string labels, truncated to 63 bits.  Hash-based so it is stable
    across processes and platforms."""
    digest = hashlib.sha256()
    digest.update(str(int(base_seed)).encode())
    for label in labels:
        digest.update(b"/")
        digest.update(str(label).encode())
    return int.from_bytes(digest.digest()[:8], "big") >> 1


@dataclass(frozen=True)
class TxStats:
    """Transmission accounting for one payload."""

    payload_bits: int
    channel_symbols: int
    wireless_delay_seconds: float = 0.0
    decode_failures: int = 0
    side_info_bits: int = 0

    def __post_init__(self) -> None:
        for name in ("payload_bits", "channel_symbols", "decode_failures", "side_info_bits"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0")
        if self.wireless_delay_seconds < 0:
            raise ValueError("wireless_delay_seconds must be >= 0")

    def merge(self, other: "TxStats") -> "TxStats":
        return TxStats(
            payload_bits=self.payload_bits + other.payload_bits,
            channel_symbols=self.channel_symbols + other.channel_symbols,
            wireless_delay_seconds=self.wireless_delay_seconds + other.wireless_delay_seconds,
            decode_failures=self.decode_failures + other.decode_failures,
            side_info_bits=self.side_info_bits + other.side_info_bits,
        )
