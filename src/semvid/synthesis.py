"""Foreground extraction and compositing: background-difference alpha
matting, transition-region masks, the three matte evaluation losses, and
alpha compositing.

Frames are (H, W, 3) arrays.  A matte is an (H, W) array of foreground
opacities in [0, 1], which every function taking one checks; a transition
mask is an (H, W) bool array.  Loss norms are per-pixel means so values
are resolution independent.
"""

from __future__ import annotations

import numpy as np
from scipy.ndimage import binary_dilation, binary_erosion

from .video import box_downsample

BINARIZE_THRESHOLD = 0.5


def _same_shape(a, b, what: str):
    if a.shape != b.shape:
        raise ValueError(f"{what}: dimension mismatch {a.shape} vs {b.shape}")


def _check_matte(matte) -> np.ndarray:
    """``matte`` as a float64 array, refused unless it is 2-D with every
    value in [0, 1]."""
    matte = np.asarray(matte, dtype=np.float64)
    if matte.ndim != 2:
        raise ValueError(f"a matte must be 2-D, got shape {matte.shape}")
    if not np.all((matte >= 0) & (matte <= 1)):  # NaN too
        raise ValueError("matte values must lie in [0, 1]")
    return matte


def estimate_matte(fg_frame: np.ndarray, bg_frame: np.ndarray, threshold: float,
                   softness: float) -> np.ndarray:
    """Background-difference matting: alpha ramps from 0 to 1 as the
    normalized color distance to the clean plate crosses ``threshold``,
    over a band of width ``softness``."""
    if not 0 < threshold < np.inf:  # NaN too
        raise ValueError("threshold must be positive and finite")
    if not 0 < softness < np.inf:
        raise ValueError("softness must be positive and finite")
    _same_shape(fg_frame, bg_frame, "matting inputs")
    dist = np.linalg.norm(fg_frame - bg_frame, axis=2) / np.sqrt(3.0)
    low = threshold - softness / 2.0
    return np.clip((dist - low) / softness, 0.0, 1.0)


def transition_mask(alpha_g: np.ndarray, radius: int) -> np.ndarray:
    """Band around the matte boundary: dilation minus erosion of the
    binarized matte with a (2r+1) square element.  Constant mattes produce
    an empty mask."""
    if radius < 1:
        raise ValueError("radius must be >= 1")
    binary = _check_matte(alpha_g) >= BINARIZE_THRESHOLD
    footprint = np.ones((2 * radius + 1, 2 * radius + 1), dtype=bool)
    dilated = binary_dilation(binary, structure=footprint, border_value=0)
    eroded = binary_erosion(binary, structure=footprint, border_value=1)
    return dilated & ~eroded


def semantic_loss(s_p: np.ndarray, alpha_g: np.ndarray, factor: int) -> float:
    """Half the mean squared error between a coarse mask prediction and the
    thumbnail of the reference matte."""
    s_p = _check_matte(s_p)
    thumb = box_downsample(_check_matte(alpha_g), factor)
    _same_shape(s_p, thumb, "semantic loss")
    return float(0.5 * np.mean((s_p - thumb) ** 2))


def detail_loss(d_p: np.ndarray, alpha_g: np.ndarray, m_d: np.ndarray) -> float:
    """Mean absolute matte error inside the transition band; pixels outside
    the band contribute nothing.  Empty bands give 0."""
    d_p, alpha_g, m_d = _check_matte(d_p), _check_matte(alpha_g), np.asarray(m_d, dtype=bool)
    _same_shape(d_p, alpha_g, "detail loss")
    _same_shape(d_p, m_d, "detail loss mask")
    if not m_d.any():
        return 0.0
    return float(np.abs(d_p - alpha_g)[m_d].mean())


def fusion_loss(alpha_p: np.ndarray, alpha_g: np.ndarray, fg: np.ndarray,
                bg: np.ndarray) -> float:
    """Mean absolute matte error plus the compositional error between
    images composited with the predicted and reference mattes."""
    _same_shape(alpha_p, alpha_g, "fusion loss")
    _same_shape(fg, bg, "fusion loss frames")
    if alpha_p.shape != fg.shape[:2]:
        raise ValueError("matte and frame dimensions differ")
    matte_term = float(np.mean(np.abs(alpha_p - alpha_g)))
    comp_p = composite(fg, bg, alpha_p)
    comp_g = composite(fg, bg, alpha_g)
    comp_term = float(np.mean(np.abs(comp_p - comp_g)))
    return matte_term + comp_term


def composite(x_hat: np.ndarray, b_hat: np.ndarray, alpha: np.ndarray) -> np.ndarray:
    """Per-pixel convex combination alpha * x + (1 - alpha) * b."""
    _same_shape(x_hat, b_hat, "composite frames")
    alpha = _check_matte(alpha)
    if alpha.shape != x_hat.shape[:2]:
        raise ValueError("matte and frame dimensions differ")
    a = alpha[:, :, None]
    return a * x_hat + (1.0 - a) * b_hat


def matte_iou(pred: np.ndarray, reference: np.ndarray) -> float:
    """IoU of the binarized mattes; 1.0 when both are empty."""
    pred, reference = _check_matte(pred), _check_matte(reference)
    _same_shape(pred, reference, "matte IoU")
    p = pred >= BINARIZE_THRESHOLD
    r = reference >= BINARIZE_THRESHOLD
    union = np.count_nonzero(p | r)
    if union == 0:
        return 1.0
    return float(np.count_nonzero(p & r) / union)
