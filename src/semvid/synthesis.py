"""Foreground extraction and compositing: background-difference alpha
matting, transition-region masks, the three matte evaluation losses, and
alpha compositing.

Loss norms are per-pixel means so values are resolution independent.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.ndimage import binary_dilation, binary_erosion

from .video import Frame, box_downsample

BINARIZE_THRESHOLD = 0.5


@dataclass(frozen=True)
class AlphaMatte:
    """Per-pixel foreground opacity in [0, 1]."""

    alpha: np.ndarray

    def __post_init__(self) -> None:
        a = np.ascontiguousarray(self.alpha, dtype=np.float64)
        if a.ndim != 2:
            raise ValueError("alpha matte must be two-dimensional")
        if not np.all(np.isfinite(a)) or a.min() < 0.0 or a.max() > 1.0:
            raise ValueError("alpha values must lie in [0, 1]")
        a.setflags(write=False)
        object.__setattr__(self, "alpha", a)


@dataclass(frozen=True)
class TransitionMask:
    """Binary mask of the boundary band around the foreground."""

    mask: np.ndarray

    def __post_init__(self) -> None:
        m = np.ascontiguousarray(self.mask, dtype=bool)
        if m.ndim != 2:
            raise ValueError("transition mask must be two-dimensional")
        m.setflags(write=False)
        object.__setattr__(self, "mask", m)


def _same_shape(a, b, what: str):
    if a.shape != b.shape:
        raise ValueError(f"{what}: dimension mismatch {a.shape} vs {b.shape}")


def estimate_matte(fg_frame: Frame, bg_frame: Frame, threshold: float,
                   softness: float) -> AlphaMatte:
    """Background-difference matting: alpha ramps from 0 to 1 as the
    normalized color distance to the clean plate crosses ``threshold``,
    over a band of width ``softness``."""
    if threshold <= 0:
        raise ValueError("threshold must be positive")
    if softness <= 0:
        raise ValueError("softness must be positive")
    _same_shape(fg_frame.data, bg_frame.data, "matting inputs")
    dist = np.linalg.norm(fg_frame.data - bg_frame.data, axis=2) / np.sqrt(3.0)
    low = threshold - softness / 2.0
    alpha = np.clip((dist - low) / softness, 0.0, 1.0)
    return AlphaMatte(alpha)


def transition_mask(alpha_g: AlphaMatte, radius: int) -> TransitionMask:
    """Band around the matte boundary: dilation minus erosion of the
    binarized matte with a (2r+1) square element.  Constant mattes produce
    an empty mask."""
    if radius < 1:
        raise ValueError("radius must be >= 1")
    binary = alpha_g.alpha >= BINARIZE_THRESHOLD
    footprint = np.ones((2 * radius + 1, 2 * radius + 1), dtype=bool)
    dilated = binary_dilation(binary, structure=footprint, border_value=0)
    eroded = binary_erosion(binary, structure=footprint, border_value=1)
    return TransitionMask(dilated & ~eroded)


def semantic_loss(s_p: AlphaMatte, alpha_g: AlphaMatte, factor: int) -> float:
    """Half the mean squared error between a coarse mask prediction and the
    thumbnail of the reference matte."""
    thumb = box_downsample(alpha_g.alpha, factor)
    _same_shape(s_p.alpha, thumb, "semantic loss")
    return float(0.5 * np.mean((s_p.alpha - thumb) ** 2))


def detail_loss(d_p: AlphaMatte, alpha_g: AlphaMatte, m_d: TransitionMask) -> float:
    """Mean absolute matte error inside the transition band; pixels outside
    the band contribute nothing.  Empty bands give 0."""
    _same_shape(d_p.alpha, alpha_g.alpha, "detail loss")
    _same_shape(d_p.alpha, m_d.mask, "detail loss mask")
    count = int(np.count_nonzero(m_d.mask))
    if count == 0:
        return 0.0
    diff = np.abs(d_p.alpha - alpha_g.alpha)
    return float(diff[m_d.mask].mean())


def fusion_loss(alpha_p: AlphaMatte, alpha_g: AlphaMatte, fg: Frame, bg: Frame) -> float:
    """Mean absolute matte error plus the compositional error between
    images composited with the predicted and reference mattes."""
    _same_shape(alpha_p.alpha, alpha_g.alpha, "fusion loss")
    _same_shape(fg.data, bg.data, "fusion loss frames")
    if alpha_p.alpha.shape != fg.data.shape[:2]:
        raise ValueError("matte and frame dimensions differ")
    matte_term = float(np.mean(np.abs(alpha_p.alpha - alpha_g.alpha)))
    comp_p = composite(fg, bg, alpha_p)
    comp_g = composite(fg, bg, alpha_g)
    comp_term = float(np.mean(np.abs(comp_p.data - comp_g.data)))
    return matte_term + comp_term


def composite(x_hat: Frame, b_hat: Frame, alpha: AlphaMatte) -> Frame:
    """Per-pixel convex combination alpha * x + (1 - alpha) * b."""
    _same_shape(x_hat.data, b_hat.data, "composite frames")
    if alpha.alpha.shape != x_hat.data.shape[:2]:
        raise ValueError("matte and frame dimensions differ")
    a = alpha.alpha[:, :, None]
    return Frame(a * x_hat.data + (1.0 - a) * b_hat.data)


def matte_iou(pred: AlphaMatte, reference: AlphaMatte) -> float:
    """IoU of the binarized mattes; 1.0 when both are empty."""
    _same_shape(pred.alpha, reference.alpha, "matte IoU")
    p = pred.alpha >= BINARIZE_THRESHOLD
    r = reference.alpha >= BINARIZE_THRESHOLD
    union = np.count_nonzero(p | r)
    if union == 0:
        return 1.0
    return float(np.count_nonzero(p & r) / union)
