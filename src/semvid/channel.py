"""Simulated real-valued AWGN channel, deterministic under seed.

SNR convention: the per-symbol SNR in dB, defined on unit-mean-square
symbols, so the noise variance is 10**(-snr_db / 10).  The PRNG is NumPy's
PCG64 via ``default_rng(seed)``; a fresh generator is created per
transmission, so identical (block, config) pairs always produce identical
output.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class ChannelConfig:
    snr_db: float
    seed: int

    def __post_init__(self) -> None:
        if not np.isfinite(self.snr_db):
            raise ValueError("snr_db must be finite")


@dataclass(frozen=True)
class SymbolBlock:
    """Real symbols plus the scale needed to undo power normalization."""

    symbols: np.ndarray
    scale: float = 1.0

    def __post_init__(self) -> None:
        arr = np.ascontiguousarray(self.symbols, dtype=np.float64)
        if arr.ndim != 1:
            raise ValueError("symbols must be one-dimensional")
        arr.setflags(write=False)
        object.__setattr__(self, "symbols", arr)

    @property
    def power(self) -> float:
        if self.symbols.size == 0:
            return 0.0
        return float(np.mean(self.symbols**2))


def normalize_power(block: SymbolBlock) -> SymbolBlock:
    """Rescale symbols to unit mean square; the factor is recorded in
    ``scale`` so the receiver can undo it."""
    if block.symbols.size == 0:
        raise ValueError("cannot normalize an empty block")
    rms = float(np.sqrt(np.mean(block.symbols**2)))
    if rms == 0.0:
        raise ValueError("cannot normalize an all-zero block")
    return SymbolBlock(block.symbols / rms, scale=block.scale * rms)


def noise_variance(snr_db: float) -> float:
    return float(10.0 ** (-snr_db / 10.0))


def awgn(block: SymbolBlock, cfg: ChannelConfig) -> SymbolBlock:
    """Add white Gaussian noise with variance 10**(-snr_db/10)."""
    sigma = np.sqrt(noise_variance(cfg.snr_db))
    rng = np.random.default_rng(cfg.seed)
    noisy = block.symbols + sigma * rng.standard_normal(block.symbols.size)
    return SymbolBlock(noisy, scale=block.scale)


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
