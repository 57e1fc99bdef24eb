"""Quality metrics: MSE / PSNR / MS-SSIM for images, EPE / PCK for 3D point
tracking, and average Jaccard for 2D boxes.

Conventions (documented here because the report files rely on them):

* samples are normalized to [0, 1], so PSNR uses a peak value of 1;
* identical frames get ``PSNR_CAP_DB`` instead of infinity so reports stay
  serializable;
* MS-SSIM uses the standard five published exponent weights, an 11x11
  Gaussian window (sigma 1.5), valid-window statistics, and box
  downsampling by 2 between scales; fewer scales renormalize the leading
  weights.
"""

from __future__ import annotations

import warnings

import numpy as np
from scipy.ndimage import correlate1d

from .video import Frame, box_downsample

PSNR_CAP_DB = 100.0

MS_SSIM_WEIGHTS = (0.0448, 0.2856, 0.3001, 0.2363, 0.1333)
SSIM_WINDOW = 11
SSIM_SIGMA = 1.5
SSIM_K1 = 0.01
SSIM_K2 = 0.03
# the normalized 1D Gaussian window, applied along rows then columns
_KERNEL = np.exp(-0.5 * ((np.arange(SSIM_WINDOW) - SSIM_WINDOW // 2) / SSIM_SIGMA) ** 2)
_KERNEL /= _KERNEL.sum()


def _pair_arrays(x, y):
    a = x.data if isinstance(x, Frame) else np.asarray(x, dtype=np.float64)
    b = y.data if isinstance(y, Frame) else np.asarray(y, dtype=np.float64)
    if a.shape != b.shape:
        raise ValueError(f"dimension mismatch: {a.shape} vs {b.shape}")
    return a, b


def mse(x, y) -> float:
    """Mean squared error between two equally sized frames."""
    a, b = _pair_arrays(x, y)
    return float(np.mean((a - b) ** 2))


def psnr(x, y) -> float:
    """Peak signal-to-noise ratio in dB for [0, 1] data; capped for identical
    inputs."""
    err = mse(x, y)
    if err == 0.0:
        return PSNR_CAP_DB
    return min(10.0 * np.log10(1.0 / err), PSNR_CAP_DB)


def _ssim_components(a: np.ndarray, b: np.ndarray):
    """Mean luminance and contrast-structure terms over valid windows of one
    channel."""
    half = SSIM_WINDOW // 2

    def blur(img):
        out = correlate1d(img, _KERNEL, axis=0, mode="nearest")
        out = correlate1d(out, _KERNEL, axis=1, mode="nearest")
        return out[half:-half, half:-half]

    mu_a = blur(a)
    mu_b = blur(b)
    var_a = blur(a * a) - mu_a * mu_a
    var_b = blur(b * b) - mu_b * mu_b
    cov = blur(a * b) - mu_a * mu_b
    c1 = SSIM_K1**2
    c2 = SSIM_K2**2
    lum = (2 * mu_a * mu_b + c1) / (mu_a**2 + mu_b**2 + c1)
    cs = (2 * cov + c2) / (var_a + var_b + c2)
    return float(lum.mean()), float(cs.mean())


def ms_ssim(x, y, scales: int) -> float:
    """Multi-scale structural similarity in [0, 1]; 1.0 for identical inputs.

    ``scales`` must leave at least one full 11x11 window at the coarsest
    level, i.e. min(h, w) >= 11 * 2**(scales - 1).
    """
    a, b = _pair_arrays(x, y)
    if a.ndim == 2:
        a = a[:, :, None]
        b = b[:, :, None]
    if not 1 <= scales <= len(MS_SSIM_WEIGHTS):
        raise ValueError(f"scales must be in [1, {len(MS_SSIM_WEIGHTS)}]")
    min_dim = min(a.shape[0], a.shape[1])
    needed = SSIM_WINDOW * 2 ** (scales - 1)
    if min_dim < needed:
        raise ValueError(
            f"frames of min dimension {min_dim} are too small for {scales} "
            f"scales; need at least {needed} pixels per side"
        )
    weights = np.array(MS_SSIM_WEIGHTS[:scales])
    weights = weights / weights.sum()

    values = []
    for ch in range(a.shape[2]):
        ca, cb = a[:, :, ch], b[:, :, ch]
        cs_terms = []
        lum = 1.0
        for level in range(scales):
            lum, cs = _ssim_components(ca, cb)
            cs_terms.append(max(cs, 0.0))
            if level < scales - 1:
                ca = box_downsample(ca, 2)
                cb = box_downsample(cb, 2)
        score = max(lum, 0.0) ** weights[-1]
        for w, cs in zip(weights[:-1], cs_terms[:-1]):
            score *= cs**w
        # the coarsest level contributes both luminance and cs
        score *= cs_terms[-1] ** weights[-1]
        values.append(score)
    return float(np.clip(np.mean(values), 0.0, 1.0))


def _check_points(pred, gt):
    p = np.asarray(pred, dtype=np.float64)
    g = np.asarray(gt, dtype=np.float64)
    if p.ndim != 2 or p.shape[1] != 3:
        raise ValueError("point sets must have shape (n, 3)")
    if p.shape != g.shape:
        raise ValueError(f"cardinality mismatch: {p.shape[0]} vs {g.shape[0]}")
    if p.shape[0] < 1:
        raise ValueError("point sets must be non-empty")
    if not (np.all(np.isfinite(p)) and np.all(np.isfinite(g))):
        raise ValueError("point coordinates must be finite")
    return p, g


def epe(pred, gt) -> float:
    """Mean Euclidean endpoint error between matched 3D points, in meters."""
    p, g = _check_points(pred, gt)
    return float(np.mean(np.linalg.norm(p - g, axis=1)))


def pck(pred, gt, tau: float) -> float:
    """Fraction of predicted points strictly within ``tau`` meters of truth."""
    if tau <= 0:
        raise ValueError("tau must be positive")
    p, g = _check_points(pred, gt)
    dist = np.linalg.norm(p - g, axis=1)
    return float(np.mean(dist < tau))


def _check_boxes(pred, gt):
    p = np.asarray(pred, dtype=np.float64)
    g = np.asarray(gt, dtype=np.float64)
    if p.ndim != 2 or p.shape[1] != 4:
        raise ValueError("box sets must have shape (n, 4) as (xmin, ymin, xmax, ymax)")
    if p.shape != g.shape:
        raise ValueError(f"cardinality mismatch: {p.shape[0]} vs {g.shape[0]}")
    for name, arr in (("pred", p), ("gt", g)):
        if np.any(arr[:, 0] > arr[:, 2]) or np.any(arr[:, 1] > arr[:, 3]):
            raise ValueError(f"{name} boxes must satisfy min <= max per axis")
    return p, g


def average_jaccard(pred, gt) -> float:
    """Mean intersection-over-union of matched axis-aligned boxes."""
    p, g = _check_boxes(pred, gt)
    ix = np.maximum(
        0.0, np.minimum(p[:, 2], g[:, 2]) - np.maximum(p[:, 0], g[:, 0])
    )
    iy = np.maximum(
        0.0, np.minimum(p[:, 3], g[:, 3]) - np.maximum(p[:, 1], g[:, 1])
    )
    inter = ix * iy
    area_p = (p[:, 2] - p[:, 0]) * (p[:, 3] - p[:, 1])
    area_g = (g[:, 2] - g[:, 0]) * (g[:, 3] - g[:, 1])
    union = area_p + area_g - inter
    ious = np.zeros(len(p))
    positive = union > 0
    if not np.all(positive):
        warnings.warn("zero-area union encountered; those pairs contribute 0")
    ious[positive] = inter[positive] / union[positive]
    return float(ious.mean())
