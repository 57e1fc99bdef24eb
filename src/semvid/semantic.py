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

Features are (n, grid_h, grid_w, channels) float64 arrays; the common/
individual split is a ``(common, individual)`` pair of a (grid_h, grid_w,
channels) map and per-frame residuals.  Feature values are snapped to a
dyadic grid (2**-32) right after the feature stage; with the common map
rounded to the same grid, ``common + individual`` is integer arithmetic in
disguise and therefore reconstructs the features bit exactly.

The packet carries only what is sent; the receiver derives the symbol
weights from the sent scales and the grid from the mask shapes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.fft import dct, dctn, idctn

from .bitio import index_list_bits
from .channel import TxStats, awgn, noise_variance
from .video import CHANNELS, VideoSequence, pad_edge

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


def latent_transform(gop: VideoSequence, cfg: SemanticCodecConfig) -> np.ndarray:
    """Map a GOP into latent tensors: orthonormal DCT across the channel
    axis, plane concatenation along width, then an orthonormal 2D DCT on
    non-overlapping (block, 2*block) tiles."""
    bh, bw = cfg.tile_shape
    n = len(gop)
    padded = np.stack([pad_edge(f, bh, bw) for f in gop.frames])
    decor = np.einsum("nhwc,kc->nhwk", padded, _CHANNEL_DCT)
    _, ph, pw, _ = decor.shape
    gh, gw = ph // bh, 3 * pw // bw
    # the three planes side by side, rows of width 3 * pw, cut into tiles
    tiles = decor.transpose(0, 1, 3, 2).reshape(n, gh, bh, gw, bw).transpose(0, 1, 3, 2, 4)
    coefs = dctn(tiles, norm="ortho", axes=(-2, -1))
    return coefs.reshape(n, gh, gw, cfg.channel_dim)


def latent_inverse(features: np.ndarray, frame_size: tuple,
                   cfg: SemanticCodecConfig) -> np.ndarray:
    """Invert :func:`latent_transform` into the GOP's (n, height, width, 3)
    frames, cropped to ``frame_size`` (height, width); samples are clipped
    back to [0, 1]."""
    bh, bw = cfg.tile_shape
    n, gh, gw, _ = features.shape
    height, width = frame_size
    planes = idctn(features.reshape(n, gh, gw, bh, bw), norm="ortho", axes=(-2, -1))
    decor = planes.transpose(0, 1, 3, 2, 4).reshape(n, gh * bh, 3, -1).transpose(0, 1, 3, 2)
    rgb = np.einsum("nhwk,kc->nhwc", decor, _CHANNEL_DCT)[:, :height, :width, :]
    return np.ascontiguousarray(np.clip(rgb, 0.0, 1.0))


# The channel gathers below return arrays strided along the last axis;
# copying them to C order keeps every later reduction's summation order.
def jscc_encode(latent: np.ndarray, cfg: SemanticCodecConfig) -> np.ndarray:
    """Reorder channels low-frequency first and apply the fixed power
    profile, then snap to the dyadic grid.  Linear, deterministic, and
    invertible up to the grid quantization."""
    gathered = latent[..., _tile_order(cfg)] * _jscc_gains(cfg)
    return np.ascontiguousarray(snap_to_grid(gathered))


def jscc_decode(features: np.ndarray, cfg: SemanticCodecConfig) -> np.ndarray:
    return np.ascontiguousarray((features / _jscc_gains(cfg))[..., np.argsort(_tile_order(cfg))])


def extract_common(features: np.ndarray) -> tuple:
    """Split GOP features into a common map (per-element mean, rounded to
    the feature grid) and exact per-frame residuals, so that
    ``common + individual`` gives ``features`` back bit exactly."""
    common = snap_to_grid(features.mean(axis=0))
    return common, features - common


def fit_entropy_model(maps: tuple, cfg: SemanticCodecConfig) -> EntropyModel:
    """Per-channel Laplace parameters fitted by moments (mean location and
    first absolute moment for the scale, which is the Laplace ML estimate),
    separately for the common map and the residual maps; degenerate
    channels get the scale floor."""
    c = maps[0].shape[-1]
    locations = np.zeros((2, c))
    scales = np.zeros((2, c))
    for kind, data in enumerate(m.reshape(-1, c) for m in maps):
        locations[kind] = data.mean(axis=0)
        mad = np.abs(data - locations[kind]).mean(axis=0)
        scales[kind] = np.maximum(mad, cfg.entropy_floor)
    return EntropyModel(locations, scales)


@dataclass(frozen=True)
class SemanticPacket:
    """Everything the receiver gets: kept-element masks, symbols at unit
    mean square with the factor ``rms`` that undoes that normalization (1.0
    when the symbols have no power), dequantized model parameters, and the
    frame size.  Masks, ``rms`` and model parameters are side information
    transmitted error free; their bit cost is tallied in ``side_info_bits``."""

    kept_common: np.ndarray      # bool (grid_h, grid_w, channels)
    kept_individual: np.ndarray  # bool (n, grid_h, grid_w, channels)
    symbols: np.ndarray          # read-only float64 (kept elements,)
    rms: float
    locations: np.ndarray        # dequantized (2, channels)
    scales: np.ndarray           # dequantized (2, channels)
    frame_size: tuple            # the GOP's (height, width) before padding
    side_info_bits: int


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


def variable_length_code(maps: tuple, model: EntropyModel, symbol_budget: int,
                         frame_size: tuple, cfg: SemanticCodecConfig) -> SemanticPacket:
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
    for kind, values in enumerate(maps):
        mask = np.zeros(values.shape, dtype=bool)
        if left > 0:  # most information first, the first index on ties
            em = model.likelihood(values, kind).reshape(-1)
            mask.reshape(-1)[np.argsort(np.log2(em), kind="stable")[:left]] = True
            left -= values.size
        masks.append(mask)
        symbols.append(((values - locations[kind]) / weights[kind])[mask])
    symbols = np.concatenate(symbols)
    rms = float(np.sqrt(np.mean(symbols**2)))
    if rms > 0:
        symbols = symbols / rms
    else:
        rms = 1.0
    symbols.setflags(write=False)  # sweep workers share the packet

    mask_bits = sum(index_list_bits(np.flatnonzero(m)) for m in masks)
    param_bits = 2 * (maps[0].shape[-1] * 2 * PARAM_QUANT_BITS + RANGE_HEADER_BITS)
    side_info_bits = mask_bits + param_bits + 32 + GEOMETRY_BITS

    return SemanticPacket(
        kept_common=masks[0],
        kept_individual=masks[1],
        symbols=symbols,
        rms=rms,
        locations=locations,
        scales=scales,
        frame_size=frame_size,
        side_info_bits=int(side_info_bits),
    )


def decode_packet(packet: SemanticPacket, received: np.ndarray, noise_var: float,
                  cfg: SemanticCodecConfig) -> tuple:
    """Receiver side: MMSE-style shrinkage 1/(1 + sigma^2) on the normalized
    symbols, de-normalization and de-weighting, then scatter into maps with
    dropped elements filled by the model locations.  ``received`` holds one
    value per sent symbol."""
    if np.shape(received) != packet.symbols.shape:
        raise ValueError(f"received {np.size(received)} values in shape {np.shape(received)}; "
                         f"the packet sent {packet.symbols.size} symbols")
    shrink = 1.0 / (1.0 + noise_var)
    values = received * shrink * packet.rms
    weights = _symbol_weights(packet.scales, cfg)

    maps, start = [], 0
    for kind, mask in enumerate((packet.kept_common, packet.kept_individual)):
        loc = np.broadcast_to(packet.locations[kind], mask.shape)
        out = loc.copy()
        stop = start + int(np.count_nonzero(mask))
        out[mask] = values[start:stop] * np.broadcast_to(weights[kind], mask.shape)[mask] + loc[mask]
        maps.append(out)
        start = stop
    return tuple(maps)


def prepare_semantic(gop: VideoSequence, symbol_budget: int,
                     cfg: SemanticCodecConfig) -> SemanticPacket:
    """Encoder side of the chain (reused across SNR sweep points)."""
    features = jscc_encode(latent_transform(gop, cfg), cfg)
    maps = extract_common(features)
    model = fit_entropy_model(maps, cfg)
    return variable_length_code(maps, model, symbol_budget, (gop.height, gop.width), cfg)


def transmit_packet(packet: SemanticPacket, snr_db: float, seed: int, cfg: SemanticCodecConfig):
    """Channel plus receiver side, returning the GOP's decoded (n, H, W, 3)
    frames and accounting; analog symbols never fail to decode, they just
    get noisier."""
    received = awgn(packet.symbols, snr_db, seed)
    common, individual = decode_packet(packet, received, noise_variance(snr_db), cfg)
    frames = latent_inverse(jscc_decode(common + individual, cfg), packet.frame_size, cfg)
    stats = TxStats(
        payload_bits=packet.symbols.size * cfg.bits_per_symbol_eq,
        channel_symbols=packet.symbols.size,
        decode_failures=0,
        side_info_bits=packet.side_info_bits,
    )
    return frames, stats


def semantic_transmit(gop: VideoSequence, snr_db: float, seed: int, symbol_budget: int,
                      cfg: SemanticCodecConfig):
    """Full semantic chain over the AWGN channel; returns the GOP's
    reconstructed frames and transmission accounting."""
    packet = prepare_semantic(gop, symbol_budget, cfg)
    return transmit_packet(packet, snr_db, seed, cfg)
