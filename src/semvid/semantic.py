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
from .video import Gop, pad_edge

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
        if min(self.symbol_budget, self.service_symbol_budget, self.gop_size) < 1:
            raise ValueError("symbol budgets and gop_size must be >= 1")
        if self.block_size < 1:
            raise ValueError("block_size must be >= 1")
        if not 0.0 <= self.power_alloc_exp <= 0.5:
            raise ValueError("power_alloc_exp must be in [0, 0.5]")
        if self.entropy_floor <= 0:
            raise ValueError("entropy_floor must be positive")

    @property
    def tile_shape(self):
        return (self.block_size, 2 * self.block_size)

    @property
    def channel_dim(self) -> int:
        return 2 * self.block_size**2


@dataclass(frozen=True)
class FeatureMeta:
    """Geometry needed to invert the transform chain."""

    n_frames: int
    height: int
    width: int
    grid_h: int
    grid_w: int
    channels: int


@dataclass(frozen=True)
class FeatureGrid:
    """Per-frame feature tensors of shape (n, grid_h, grid_w, channels)."""

    values: np.ndarray
    meta: FeatureMeta

    def __post_init__(self) -> None:
        v = np.ascontiguousarray(self.values, dtype=np.float64)
        m = self.meta
        if v.shape != (m.n_frames, m.grid_h, m.grid_w, m.channels):
            raise ValueError(f"feature tensor shape {v.shape} inconsistent with meta")
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


def _channel_dct_matrix(n: int = 3) -> np.ndarray:
    return dct(np.eye(n), axis=0, norm="ortho")


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


def latent_transform(gop: Gop, cfg: SemanticCodecConfig = SemanticCodecConfig()) -> FeatureGrid:
    """Map a GOP into latent tensors: orthonormal DCT across the channel
    axis, plane concatenation along width, then an orthonormal 2D DCT on
    non-overlapping (block, 2*block) tiles."""
    bh, bw = cfg.tile_shape
    arr = gop.to_array()
    n, h, w, _ = arr.shape
    padded = np.stack([pad_edge(f, bh, bw) for f in arr])
    decor = np.einsum("nhwc,kc->nhwk", padded, _channel_dct_matrix())
    planes = np.concatenate([decor[..., k] for k in range(3)], axis=2)  # (n, ph, 3*pw)
    ph, pw3 = planes.shape[1], planes.shape[2]
    gh, gw = ph // bh, pw3 // bw
    tiles = planes.reshape(n, gh, bh, gw, bw).transpose(0, 1, 3, 2, 4)
    coefs = dctn(tiles, norm="ortho", axes=(-2, -1))
    values = coefs.reshape(n, gh, gw, cfg.channel_dim)
    return FeatureGrid(values, FeatureMeta(n, h, w, gh, gw, cfg.channel_dim))


def latent_inverse(lat: FeatureGrid, cfg: SemanticCodecConfig = SemanticCodecConfig()) -> Gop:
    """Invert :func:`latent_transform`; samples are clipped back to [0, 1]."""
    bh, bw = cfg.tile_shape
    m = lat.meta
    tiles = lat.values.reshape(m.n_frames, m.grid_h, m.grid_w, bh, bw)
    planes = idctn(tiles, norm="ortho", axes=(-2, -1))
    planes = planes.transpose(0, 1, 3, 2, 4).reshape(m.n_frames, m.grid_h * bh, m.grid_w * bw)
    pw = planes.shape[2] // 3
    decor = np.stack([planes[:, :, k * pw : (k + 1) * pw] for k in range(3)], axis=-1)
    rgb = np.einsum("nhwk,kc->nhwc", decor, _channel_dct_matrix())
    rgb = rgb[:, : m.height, : m.width, :]
    return Gop.from_array(np.clip(rgb, 0.0, 1.0))


def jscc_encode(lat: FeatureGrid, cfg: SemanticCodecConfig = SemanticCodecConfig()) -> FeatureGrid:
    """Reorder channels low-frequency first and apply the fixed power
    profile, then snap to the dyadic grid.  Linear, deterministic, and
    invertible up to the grid quantization."""
    order = _tile_order(cfg)
    gains = _jscc_gains(cfg)
    values = snap_to_grid(lat.values[..., order] * gains)
    return FeatureGrid(values, lat.meta)


def jscc_decode(features: FeatureGrid, cfg: SemanticCodecConfig = SemanticCodecConfig()) -> FeatureGrid:
    order = _tile_order(cfg)
    gains = _jscc_gains(cfg)
    inverse = np.empty_like(order)
    inverse[order] = np.arange(order.size)
    values = (features.values / gains)[..., inverse]
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


def fit_entropy_model(maps: FeatureMaps, cfg: SemanticCodecConfig = SemanticCodecConfig()) -> EntropyModel:
    """Per-channel Laplace parameters fitted by moments (mean location and
    first absolute moment for the scale, which is the Laplace ML estimate),
    separately for the common map and the residual maps; degenerate
    channels get the scale floor."""
    c = maps.meta.channels
    locations = np.zeros((2, c))
    scales = np.zeros((2, c))
    for kind, data in ((0, maps.common.reshape(-1, c)), (1, maps.individual.reshape(-1, c))):
        locations[kind] = data.mean(axis=0)
        mad = np.abs(data - locations[kind]).mean(axis=0)
        scales[kind] = np.maximum(mad, cfg.entropy_floor)
    return EntropyModel(locations, scales)


def likelihood(maps: FeatureMaps, model: EntropyModel):
    """Per-element probability masses for (common, individual) maps."""
    return (
        model.likelihood(maps.common, kind=0),
        model.likelihood(maps.individual, kind=1),
    )


@dataclass(frozen=True)
class SemanticPacket:
    """Everything the receiver needs: kept-element masks, normalized
    symbols, dequantized model parameters, and geometry.  Masks and model
    parameters are side information transmitted error free; their bit cost
    is tallied in ``side_info_bits``."""

    kept_common: np.ndarray      # bool (grid_h, grid_w, channels)
    kept_individual: np.ndarray  # bool (n, grid_h, grid_w, channels)
    block: SymbolBlock
    locations: np.ndarray        # dequantized (2, channels)
    scales: np.ndarray           # dequantized (2, channels)
    weights: np.ndarray          # per-channel symbol weights (2, channels)
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


def variable_length_code(
    maps: FeatureMaps,
    model: EntropyModel,
    symbol_budget: int,
    cfg: SemanticCodecConfig = SemanticCodecConfig(),
) -> SemanticPacket:
    """Keep the ``symbol_budget`` highest-information elements, common map
    first (it is transmitted once per GOP), and pack them as power
    normalized real symbols."""
    if symbol_budget < 1:
        raise ValueError("symbol_budget must be >= 1")
    em_common, em_individual = likelihood(maps, model)
    info_common = -np.log2(em_common).reshape(-1)
    info_individual = -np.log2(em_individual).reshape(-1)

    n_common = info_common.size
    n_individual = info_individual.size
    kept_common = np.zeros(n_common, dtype=bool)
    kept_individual = np.zeros(n_individual, dtype=bool)
    if symbol_budget >= n_common:
        kept_common[:] = True
        remaining = min(symbol_budget - n_common, n_individual)
        if remaining > 0:
            top = np.argsort(-info_individual, kind="stable")[:remaining]
            kept_individual[top] = True
    else:
        top = np.argsort(-info_common, kind="stable")[:symbol_budget]
        kept_common[top] = True

    locations = _quantize_params(model.locations, log_domain=False)
    scales = _quantize_params(model.scales, log_domain=True)
    weights = _symbol_weights(scales, cfg)

    c = maps.meta.channels
    ch_common = np.tile(np.arange(c), n_common // c)
    ch_individual = np.tile(np.arange(c), n_individual // c)
    flat_common = maps.common.reshape(-1)
    flat_individual = maps.individual.reshape(-1)
    sym_common = (
        flat_common[kept_common] - locations[0, ch_common[kept_common]]
    ) / weights[0, ch_common[kept_common]]
    sym_individual = (
        flat_individual[kept_individual] - locations[1, ch_individual[kept_individual]]
    ) / weights[1, ch_individual[kept_individual]]
    symbols = np.concatenate([sym_common, sym_individual])
    raw = SymbolBlock(symbols)
    block = normalize_power(raw) if symbols.size and raw.power > 0 else raw

    mask_bits = index_list_bits(np.nonzero(kept_common)[0]) + index_list_bits(
        np.nonzero(kept_individual)[0]
    )
    param_bits = 2 * (c * 2 * PARAM_QUANT_BITS + RANGE_HEADER_BITS)
    side_info_bits = mask_bits + param_bits + 32 + GEOMETRY_BITS

    return SemanticPacket(
        kept_common=kept_common.reshape(maps.common.shape),
        kept_individual=kept_individual.reshape(maps.individual.shape),
        block=block,
        locations=locations,
        scales=scales,
        weights=weights,
        meta=maps.meta,
        side_info_bits=int(side_info_bits),
    )


def decode_packet(
    packet: SemanticPacket,
    received: SymbolBlock,
    noise_var: float,
    cfg: SemanticCodecConfig = SemanticCodecConfig(),
) -> FeatureMaps:
    """Receiver side: MMSE-style shrinkage 1/(1 + sigma^2) on the normalized
    symbols, de-normalization and de-weighting, then scatter into maps with
    dropped elements filled by the model locations."""
    shrink = 1.0 / (1.0 + noise_var)
    values = received.symbols * shrink * received.scale

    c = packet.meta.channels
    kc = packet.kept_common.reshape(-1)
    ki = packet.kept_individual.reshape(-1)
    n_common_kept = int(np.count_nonzero(kc))
    ch_common = np.tile(np.arange(c), kc.size // c)
    ch_individual = np.tile(np.arange(c), ki.size // c)

    common = np.tile(packet.locations[0], kc.size // c).astype(np.float64)
    individual = np.tile(packet.locations[1], ki.size // c).astype(np.float64)
    common[kc] = (
        values[:n_common_kept] * packet.weights[0, ch_common[kc]]
        + packet.locations[0, ch_common[kc]]
    )
    individual[ki] = (
        values[n_common_kept:] * packet.weights[1, ch_individual[ki]]
        + packet.locations[1, ch_individual[ki]]
    )
    return FeatureMaps(
        common.reshape(packet.kept_common.shape),
        individual.reshape(packet.kept_individual.shape),
        packet.meta,
    )


def prepare_semantic(
    gop: Gop, symbol_budget: int, cfg: SemanticCodecConfig = SemanticCodecConfig()
) -> SemanticPacket:
    """Encoder side of the chain (reused across SNR sweep points)."""
    features = jscc_encode(latent_transform(gop, cfg), cfg)
    maps = extract_common(features)
    model = fit_entropy_model(maps, cfg)
    return variable_length_code(maps, model, symbol_budget, cfg)


def transmit_packet(
    packet: SemanticPacket,
    ch: ChannelConfig,
    cfg: SemanticCodecConfig = SemanticCodecConfig(),
):
    """Channel plus receiver side; analog symbols never fail to decode,
    they just get noisier."""
    received = awgn(packet.block, ch)
    maps_hat = decode_packet(packet, received, noise_variance(ch.snr_db), cfg)
    gop_hat = latent_inverse(jscc_decode(merge_common(maps_hat), cfg), cfg)
    stats = TxStats(
        payload_bits=packet.symbol_count * cfg.bits_per_symbol_eq,
        channel_symbols=packet.symbol_count,
        decode_failures=0,
        side_info_bits=packet.side_info_bits,
    )
    return gop_hat, stats


def semantic_transmit(
    gop: Gop,
    ch: ChannelConfig,
    symbol_budget: int,
    cfg: SemanticCodecConfig = SemanticCodecConfig(),
):
    """Full semantic chain over the AWGN channel; returns the reconstructed
    GOP and transmission accounting."""
    packet = prepare_semantic(gop, symbol_budget, cfg)
    return transmit_packet(packet, ch, cfg)
