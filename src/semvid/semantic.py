"""Deterministic analog semantic transmission chain.

Stages: an exactly invertible latent transform (orthonormal channel
decorrelation + tiled 2D DCT over plane-concatenated channels, 128 latent
channels at the default tile), a fixed energy-ordering / power-profile
stage standing in for a learned feature codec, a common/individual feature
split per GOP, a factorized Laplace entropy model fitted by moments, and
variable-length coding that keeps the highest-information elements within a
symbol budget.  Kept elements travel as real-valued symbols; the receiver
applies MMSE-style shrinkage 1/(1 + sigma^2) before inversion, which is what
gives the chain graceful degradation instead of a cliff.

Feature values are snapped to a dyadic grid (2**-32) right after the
feature stage; with the common map rounded to the same grid, the split
``common + individual`` is integer arithmetic in disguise and therefore
reconstructs bit exactly.

The packet carries only what is sent; the receiver derives the symbol
weights from the sent scales and the grid from the mask shapes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.fft import dct, dctn, idctn

from .bitio import index_list_bits
from .channel import (
    ChannelConfig,
    SymbolBlock,
    TxStats,
    awgn,
    noise_variance,
    normalize_power,
)
from .video import CHANNELS, Frame, VideoSequence, pad_edge

GRID_BITS = 32
_GRID = float(2**GRID_BITS)
PARAM_QUANT_BITS = 8
GEOMETRY_BITS = 64
RANGE_HEADER_BITS = 4 * 32
BIN_WIDTH = 1.0 / 64.0  # integration bin for likelihoods


@dataclass(frozen=True)
class SemanticCodecConfig:
    """The semantic chain's settings; also the ``semantic`` config section."""

    symbol_budget: int = 378            # calibrated against the reference clip
    service_symbol_budget: int = 18000  # roomier budget for service uploads
    gop_size: int = 8              # one GOP per reference clip: side info paid once
    block_size: int = 8            # tile is (block_size, 2 * block_size)
    entropy_floor: float = 1e-3    # minimum Laplace scale
    power_alloc_exp: float = 0.25  # symbol amplitude ~ variance**-exp
    bits_per_symbol_eq: int = 32   # payload accounting per analog symbol

    def __post_init__(self) -> None:
        for name in ("symbol_budget", "service_symbol_budget", "gop_size", "block_size",
                     "bits_per_symbol_eq"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")
        if not 0.0 <= self.power_alloc_exp <= 0.5:
            raise ValueError("power_alloc_exp must be in [0, 0.5]")
        if not 0.0 < self.entropy_floor < np.inf:
            raise ValueError("entropy_floor must be positive and finite")

    @property
    def tile_shape(self):
        return (self.block_size, 2 * self.block_size)

    @property
    def channel_dim(self) -> int:
        return 2 * self.block_size**2


@dataclass(frozen=True)
class FeatureMeta:
    """Frame size before padding, which inversion crops back to; the frame,
    grid and channel counts are the feature tensors' shape."""

    height: int
    width: int


@dataclass(frozen=True)
class FeatureGrid:
    """Per-frame feature tensors of shape (n, grid_h, grid_w, channels)."""

    values: np.ndarray
    meta: FeatureMeta

    def __post_init__(self) -> None:
        v = np.ascontiguousarray(self.values, dtype=np.float64)
        if v.ndim != 4:
            raise ValueError(f"feature tensor shape {v.shape} is not (n, grid_h, grid_w, channels)")
        if not np.all(np.isfinite(v)):
            raise ValueError("feature values must be finite")
        object.__setattr__(self, "values", v)


@dataclass(frozen=True)
class FeatureMaps:
    """GOP features split into one common map and per-frame residual maps.

    Invariant: ``common + individual[i]`` equals the input features bit
    exactly (both live on the dyadic grid)."""

    common: np.ndarray       # (grid_h, grid_w, channels)
    individual: np.ndarray   # (n, grid_h, grid_w, channels)
    meta: FeatureMeta


@dataclass(frozen=True)
class EntropyModel:
    """Factorized Laplace model per (map kind, channel); kind 0 is the
    common map, kind 1 the individual maps."""

    locations: np.ndarray  # (2, channels)
    scales: np.ndarray     # (2, channels), >= floor

    def __post_init__(self) -> None:
        if np.any(self.scales <= 0):
            raise ValueError("scales must be positive")

    def likelihood(self, values: np.ndarray, kind: int) -> np.ndarray:
        """Probability mass of each element in its quantization bin; always
        in (0, 1]."""
        loc = self.locations[kind]
        b = self.scales[kind]
        d = np.abs(values - loc)
        half = BIN_WIDTH / 2.0
        tail = np.exp(-d / b) * np.sinh(half / b)
        # cosh argument clamped: the center branch only applies for d < half
        center = 1.0 - np.exp(-half / b) * np.cosh(np.minimum(d, half) / b)
        em = np.where(d >= half, tail, center)
        return np.clip(em, np.finfo(np.float64).tiny, 1.0)


def snap_to_grid(values: np.ndarray) -> np.ndarray:
    return np.round(values * _GRID) / _GRID


_CHANNEL_DCT = dct(np.eye(CHANNELS), axis=0, norm="ortho")  # decorrelates RGB


def _tile_order(cfg: SemanticCodecConfig) -> np.ndarray:
    """Fixed low-frequency-first ordering of tile coefficients."""
    bh, bw = cfg.tile_shape
    fy, fx = np.meshgrid(np.arange(bh), np.arange(bw), indexing="ij")
    key = (fy / bh) ** 2 + (fx / bw) ** 2
    flat = key.reshape(-1)
    tie = (fy + fx).reshape(-1) * bh * bw + fy.reshape(-1)
    return np.lexsort((tie, flat))


def _jscc_gains(cfg: SemanticCodecConfig) -> np.ndarray:
    """Fixed per-channel amplitude profile, normalized to unit mean square."""
    j = np.arange(cfg.channel_dim, dtype=np.float64)
    q = (1.0 + j) ** -0.25
    return q / np.sqrt(np.mean(q**2))


def latent_transform(gop: VideoSequence, cfg: SemanticCodecConfig) -> FeatureGrid:
    """Map a GOP into latent tensors: orthonormal DCT across the channel
    axis, plane concatenation along width, then an orthonormal 2D DCT on
    non-overlapping (block, 2*block) tiles."""
    bh, bw = cfg.tile_shape
    arr = gop.to_array()
    n, h, w, _ = arr.shape
    padded = np.stack([pad_edge(f, bh, bw) for f in arr])
    decor = np.einsum("nhwc,kc->nhwk", padded, _CHANNEL_DCT)
    _, ph, pw, _ = decor.shape
    gh, gw = ph // bh, 3 * pw // bw
    # the three planes side by side, rows of width 3 * pw, cut into tiles
    tiles = decor.transpose(0, 1, 3, 2).reshape(n, gh, bh, gw, bw).transpose(0, 1, 3, 2, 4)
    coefs = dctn(tiles, norm="ortho", axes=(-2, -1))
    values = coefs.reshape(n, gh, gw, cfg.channel_dim)
    return FeatureGrid(values, FeatureMeta(h, w))


def latent_inverse(lat: FeatureGrid, cfg: SemanticCodecConfig) -> tuple:
    """Invert :func:`latent_transform` into the GOP's frames; samples are
    clipped back to [0, 1]."""
    bh, bw = cfg.tile_shape
    n, gh, gw, _ = lat.values.shape
    planes = idctn(lat.values.reshape(n, gh, gw, bh, bw), norm="ortho", axes=(-2, -1))
    decor = planes.transpose(0, 1, 3, 2, 4).reshape(n, gh * bh, 3, -1).transpose(0, 1, 3, 2)
    rgb = np.einsum("nhwk,kc->nhwc", decor, _CHANNEL_DCT)
    rgb = rgb[:, : lat.meta.height, : lat.meta.width, :]
    return tuple(Frame(f) for f in np.clip(rgb, 0.0, 1.0))


def jscc_encode(lat: FeatureGrid, cfg: SemanticCodecConfig) -> FeatureGrid:
    """Reorder channels low-frequency first and apply the fixed power
    profile, then snap to the dyadic grid.  Linear, deterministic, and
    invertible up to the grid quantization."""
    order = _tile_order(cfg)
    gains = _jscc_gains(cfg)
    values = snap_to_grid(lat.values[..., order] * gains)
    return FeatureGrid(values, lat.meta)


def jscc_decode(features: FeatureGrid, cfg: SemanticCodecConfig) -> FeatureGrid:
    values = (features.values / _jscc_gains(cfg))[..., np.argsort(_tile_order(cfg))]
    return FeatureGrid(values, features.meta)


def extract_common(features: FeatureGrid) -> FeatureMaps:
    """Split GOP features into a common map (per-element mean, rounded to
    the feature grid) and exact per-frame residuals."""
    common = snap_to_grid(features.values.mean(axis=0))
    individual = features.values - common
    return FeatureMaps(common, individual, features.meta)


def merge_common(maps: FeatureMaps) -> FeatureGrid:
    """Reconstruct the feature tensors; bit exact for grid-aligned maps."""
    return FeatureGrid(maps.common + maps.individual, maps.meta)


def fit_entropy_model(maps: FeatureMaps, cfg: SemanticCodecConfig) -> EntropyModel:
    """Per-channel Laplace parameters fitted by moments (mean location and
    first absolute moment for the scale, which is the Laplace ML estimate),
    separately for the common map and the residual maps; degenerate
    channels get the scale floor."""
    c = maps.common.shape[-1]
    locations = np.zeros((2, c))
    scales = np.zeros((2, c))
    for kind, data in ((0, maps.common.reshape(-1, c)), (1, maps.individual.reshape(-1, c))):
        locations[kind] = data.mean(axis=0)
        mad = np.abs(data - locations[kind]).mean(axis=0)
        scales[kind] = np.maximum(mad, cfg.entropy_floor)
    return EntropyModel(locations, scales)


@dataclass(frozen=True)
class SemanticPacket:
    """Everything the receiver gets: kept-element masks, normalized
    symbols, dequantized model parameters, and the frame size.  Masks and
    model parameters are side information transmitted error free; their bit
    cost is tallied in ``side_info_bits``."""

    kept_common: np.ndarray      # bool (grid_h, grid_w, channels)
    kept_individual: np.ndarray  # bool (n, grid_h, grid_w, channels)
    block: SymbolBlock
    locations: np.ndarray        # dequantized (2, channels)
    scales: np.ndarray           # dequantized (2, channels)
    meta: FeatureMeta
    side_info_bits: int

    @property
    def symbol_count(self) -> int:
        return int(self.block.symbols.size)


def _quantize_params(values: np.ndarray, log_domain: bool):
    """8-bit quantization with a float32 (min, max) range header; returns
    the dequantized array the receiver will see."""
    v = np.log(values) if log_domain else values
    lo = float(np.float32(v.min()))
    hi = float(np.float32(v.max()))
    if hi <= lo:
        deq = np.full_like(v, lo)
    else:
        levels = (1 << PARAM_QUANT_BITS) - 1
        codes = np.round((v - lo) / (hi - lo) * levels)
        deq = lo + codes * (hi - lo) / levels
    return np.exp(deq) if log_domain else deq


def _symbol_weights(scales: np.ndarray, cfg: SemanticCodecConfig) -> np.ndarray:
    """Amplitude allocation: symbols are divided by variance**exp, which
    equalizes (exp=0.5) or partially equalizes per-channel power."""
    variance = 2.0 * scales**2
    return variance**cfg.power_alloc_exp


def variable_length_code(maps: FeatureMaps, model: EntropyModel, symbol_budget: int,
                         cfg: SemanticCodecConfig) -> SemanticPacket:
    """Keep the ``symbol_budget`` highest-information elements, common map
    first (it is transmitted once per GOP), and pack them as power
    normalized real symbols."""
    if symbol_budget < 1:
        raise ValueError("symbol_budget must be >= 1")
    locations = _quantize_params(model.locations, log_domain=False)
    scales = _quantize_params(model.scales, log_domain=True)
    weights = _symbol_weights(scales, cfg)

    masks, symbols = [], []
    left = symbol_budget
    for kind, values in enumerate((maps.common, maps.individual)):
        mask = np.zeros(values.shape, dtype=bool)
        if left > 0:  # most information first, the first index on ties
            em = model.likelihood(values, kind).reshape(-1)
            mask.reshape(-1)[np.argsort(np.log2(em), kind="stable")[:left]] = True
            left -= values.size
        masks.append(mask)
        symbols.append(((values - locations[kind]) / weights[kind])[mask])
    raw = SymbolBlock(np.concatenate(symbols))
    block = normalize_power(raw) if raw.power > 0 else raw

    mask_bits = sum(index_list_bits(np.flatnonzero(m)) for m in masks)
    param_bits = 2 * (maps.common.shape[-1] * 2 * PARAM_QUANT_BITS + RANGE_HEADER_BITS)
    side_info_bits = mask_bits + param_bits + 32 + GEOMETRY_BITS

    return SemanticPacket(
        kept_common=masks[0],
        kept_individual=masks[1],
        block=block,
        locations=locations,
        scales=scales,
        meta=maps.meta,
        side_info_bits=int(side_info_bits),
    )


def decode_packet(packet: SemanticPacket, received: SymbolBlock, noise_var: float,
                  cfg: SemanticCodecConfig) -> FeatureMaps:
    """Receiver side: MMSE-style shrinkage 1/(1 + sigma^2) on the normalized
    symbols, de-normalization and de-weighting, then scatter into maps with
    dropped elements filled by the model locations."""
    shrink = 1.0 / (1.0 + noise_var)
    values = received.symbols * shrink * received.scale
    weights = _symbol_weights(packet.scales, cfg)

    maps, start = [], 0
    for kind, mask in enumerate((packet.kept_common, packet.kept_individual)):
        loc = np.broadcast_to(packet.locations[kind], mask.shape)
        out = loc.copy()
        stop = start + int(np.count_nonzero(mask))
        out[mask] = values[start:stop] * np.broadcast_to(weights[kind], mask.shape)[mask] + loc[mask]
        maps.append(out)
        start = stop
    return FeatureMaps(*maps, packet.meta)


def prepare_semantic(gop: VideoSequence, symbol_budget: int,
                     cfg: SemanticCodecConfig) -> SemanticPacket:
    """Encoder side of the chain (reused across SNR sweep points)."""
    features = jscc_encode(latent_transform(gop, cfg), cfg)
    maps = extract_common(features)
    model = fit_entropy_model(maps, cfg)
    return variable_length_code(maps, model, symbol_budget, cfg)


def transmit_packet(packet: SemanticPacket, ch: ChannelConfig, cfg: SemanticCodecConfig):
    """Channel plus receiver side, returning the GOP's decoded frames and
    accounting; analog symbols never fail to decode, they just get noisier."""
    received = awgn(packet.block, ch)
    maps_hat = decode_packet(packet, received, noise_variance(ch.snr_db), cfg)
    frames = latent_inverse(jscc_decode(merge_common(maps_hat), cfg), cfg)
    stats = TxStats(
        payload_bits=packet.symbol_count * cfg.bits_per_symbol_eq,
        channel_symbols=packet.symbol_count,
        decode_failures=0,
        side_info_bits=packet.side_info_bits,
    )
    return frames, stats


def semantic_transmit(gop: VideoSequence, ch: ChannelConfig, symbol_budget: int,
                      cfg: SemanticCodecConfig):
    """Full semantic chain over the AWGN channel; returns the GOP's
    reconstructed frames and transmission accounting."""
    packet = prepare_semantic(gop, symbol_budget, cfg)
    return transmit_packet(packet, ch, cfg)
